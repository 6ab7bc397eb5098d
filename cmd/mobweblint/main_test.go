package main

import (
	"testing"

	"mobweb/internal/lint"
)

// The acceptance gate: the committed tree must lint clean under the
// full analyzer suite. Run from the module root so "mobweb/..." matches
// every production package (testdata fixtures are excluded by design).
func TestTreeLintsClean(t *testing.T) {
	diags, err := lint.Run("../..", []string{"mobweb/..."}, lint.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("lint finding in committed tree: %s", d)
	}
}

// The multichecker must register the full suite, every analyzer with a
// Run over the whole-load Pass.
func TestAnalyzersRegistered(t *testing.T) {
	as := lint.Analyzers()
	want := map[string]bool{
		"planmut": false, "framemut": false, "gfarith": false, "locks": false,
		"errwrap": false, "goroleak": false, "nondet": false, "hotalloc": false,
	}
	if len(as) != len(want) {
		t.Errorf("got %d analyzers, want %d", len(as), len(want))
	}
	for _, a := range as {
		if a.Name == "" || a.Doc == "" {
			t.Errorf("analyzer %+v missing Name/Doc", a)
		}
		if a.Run == nil {
			t.Errorf("analyzer %s has no Run", a.Name)
		}
		if _, ok := want[a.Name]; ok {
			want[a.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("analyzer %s not registered", name)
		}
	}
}
