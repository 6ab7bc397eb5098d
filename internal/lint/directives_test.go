package lint

import (
	"go/parser"
	"go/token"
	"testing"
)

const directivesSrc = `package p

import "time"

// other carries a directive of another name.
//
//mobweb:other fixture reason
func other() {}

// plain has no directive.
func plain() {}

func body() int64 {
	a := time.Now().UnixNano() //mobweb:nondet-ok trailing form
	//mobweb:nondet-ok standalone form covers the next line
	b := time.Now().UnixNano()
	c := time.Now().UnixNano()
	return a + b + c
}

// wall reads the clock throughout.
//
//mobweb:nondet-ok function form covers the whole body
func wall() int64 {
	t := time.Now()
	return t.UnixNano()
}
`

func indexSrc(t *testing.T) commentIndex {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", directivesSrc, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	idx := make(commentIndex)
	idx.add(fset, f)
	return idx
}

func TestDirectiveIndex(t *testing.T) {
	idx := indexSrc(t)
	cases := []struct {
		line int
		name string
		want bool
		why  string
	}{
		{14, "mobweb:nondet-ok", true, "trailing directive covers its own line"},
		{15, "mobweb:nondet-ok", true, "standalone directive covers its own line"},
		{16, "mobweb:nondet-ok", true, "standalone directive covers the next line"},
		{17, "mobweb:nondet-ok", false, "coverage stops after one line"},
		{14, "mobweb:other", false, "directive names are distinct"},
	}
	for _, c := range cases {
		if got := idx.on(token.Position{Filename: "p.go", Line: c.line}, c.name); got != c.want {
			t.Errorf("line %d %q = %v, want %v (%s)", c.line, c.name, got, c.want, c.why)
		}
	}
}

// A directive in a doc comment covers the whole body it documents.
func TestFuncDirective(t *testing.T) {
	idx := indexSrc(t)
	on := func(line int, name string) bool {
		return idx.on(token.Position{Filename: "p.go", Line: line}, name)
	}
	if !on(8, "mobweb:other") {
		t.Error("other's doc comment carries //mobweb:other; its body is not covered")
	}
	if on(11, "mobweb:other") {
		t.Error("plain has no directive; the index invented one")
	}
	if on(8, "mobweb:nondet-ok") {
		t.Error("other carries //mobweb:other, not //mobweb:nondet-ok")
	}
	for line := 24; line <= 27; line++ {
		if !on(line, "mobweb:nondet-ok") {
			t.Errorf("wall's doc directive must cover its body; line %d is not covered", line)
		}
	}
	if on(28, "mobweb:nondet-ok") {
		t.Error("function-form coverage must stop at the closing brace")
	}
}

func TestParseDirective(t *testing.T) {
	cases := []struct {
		text string
		name string
	}{
		{"//mobweb:other fixture reason", "mobweb:other"},
		{"//mobweb:nondet-ok", "mobweb:nondet-ok"},
		{"//mobweb:", ""},           // name missing
		{"// mobweb:nondet-ok", ""}, // space breaks the directive form
		{"//lint:allow nondet", ""}, // not a directive
		{"plain text", ""},
	}
	for _, c := range cases {
		if got := parseDirective(c.text); got != c.name {
			t.Errorf("parseDirective(%q) = %q, want %q", c.text, got, c.name)
		}
	}
}
