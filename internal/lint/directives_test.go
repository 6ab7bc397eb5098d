package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

const directivesSrc = `package p

import "time"

// hot is a documented hot path.
//
//mobweb:hot fixture reason
func hot() {}

// plain has no directive.
func plain() {}

func body() int64 {
	a := time.Now().UnixNano() //mobweb:nondet-ok trailing form
	//mobweb:nondet-ok standalone form covers the next line
	b := time.Now().UnixNano()
	c := time.Now().UnixNano()
	return a + b + c
}
`

func TestDirectiveIndex(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", directivesSrc, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	idx := buildDirectives(fset, []*ast.File{f})
	at := func(line int) token.Position { return token.Position{Filename: "p.go", Line: line} }

	cases := []struct {
		line int
		name string
		want bool
		why  string
	}{
		{14, "nondet-ok", true, "trailing directive covers its own line"},
		{15, "nondet-ok", true, "standalone directive covers its own line"},
		{16, "nondet-ok", true, "standalone directive covers the next line"},
		{17, "nondet-ok", false, "coverage stops after one line"},
		{14, "hot", false, "directive names are distinct"},
		{14, "nondet-ok", true, "exact name matches"},
	}
	for _, c := range cases {
		if got := idx.onLine(at(c.line), c.name); got != c.want {
			t.Errorf("line %d directive %q = %v, want %v (%s)", c.line, c.name, got, c.want, c.why)
		}
	}
}

func TestFuncDirective(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", directivesSrc, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]*ast.FuncDecl)
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			byName[fd.Name.Name] = fd
		}
	}
	if !funcDirective(byName["hot"], "hot") {
		t.Error("hot's doc comment carries //mobweb:hot; funcDirective missed it")
	}
	if funcDirective(byName["plain"], "hot") {
		t.Error("plain has no directive; funcDirective invented one")
	}
	if funcDirective(byName["hot"], "nondet-ok") {
		t.Error("hot carries //mobweb:hot, not //mobweb:nondet-ok")
	}
	if funcDirective(nil, "hot") {
		t.Error("nil declaration must not carry directives")
	}
}

func TestParseDirective(t *testing.T) {
	cases := []struct {
		text string
		name string
		ok   bool
	}{
		{"//mobweb:hot per-frame kernel", "hot", true},
		{"//mobweb:nondet-ok", "nondet-ok", true},
		{"//mobweb:", "", false},             // name missing
		{"// mobweb:hot", "", false},         // space breaks the directive form
		{"//lint:allow hotalloc", "", false}, // different namespace
		{"plain text", "", false},
	}
	for _, c := range cases {
		name, ok := parseDirective(c.text)
		if name != c.name || ok != c.ok {
			t.Errorf("parseDirective(%q) = (%q, %v), want (%q, %v)", c.text, name, ok, c.name, c.ok)
		}
	}
}
