package lint

import (
	"go/parser"
	"go/token"
	"slices"
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
	return a + b + c //lint:allow gfarith, nondet (fixture reason)
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
		{14, "mobweb:hot", false, "directive names are distinct"},
		{18, "lint:allow gfarith", true, "//lint:allow covers its own line"},
		{18, "lint:allow nondet", true, "//lint:allow lists several analyzers"},
		{19, "lint:allow gfarith", false, "//lint:allow covers its own line only"},
		{18, "lint:allow hotalloc", false, "//lint:allow covers only the analyzers listed"},
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
	if !on(8, "mobweb:hot") {
		t.Error("hot's doc comment carries //mobweb:hot; its body is not covered")
	}
	if on(11, "mobweb:hot") {
		t.Error("plain has no directive; the index invented one")
	}
	if on(8, "mobweb:nondet-ok") {
		t.Error("hot carries //mobweb:hot, not //mobweb:nondet-ok")
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
		text      string
		names     []string
		directive bool
	}{
		{"//mobweb:hot per-frame kernel", []string{"mobweb:hot"}, true},
		{"//mobweb:nondet-ok", []string{"mobweb:nondet-ok"}, true},
		{"//mobweb:", nil, false},     // name missing
		{"// mobweb:hot", nil, false}, // space breaks the directive form
		{"//lint:allow hotalloc", []string{"lint:allow hotalloc"}, false},
		{"//lint:allow gfarith,nondet (reason, not names)", []string{"lint:allow gfarith", "lint:allow nondet"}, false},
		{"plain text", nil, false},
	}
	for _, c := range cases {
		names, directive := parseComment(c.text)
		if !slices.Equal(names, c.names) || directive != c.directive {
			t.Errorf("parseComment(%q) = (%q, %v), want (%q, %v)", c.text, names, directive, c.names, c.directive)
		}
	}
}
