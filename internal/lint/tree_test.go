package lint_test

import (
	"testing"

	"mobweb/internal/lint"
)

// The acceptance gate (`make lint`): the committed tree must lint clean
// under the full analyzer suite. Run from the module root so
// "mobweb/..." matches every production package (testdata fixtures are
// excluded by design).
func TestTreeLintsClean(t *testing.T) {
	diags, err := lint.Run("../..", []string{"mobweb/..."}, lint.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("lint finding in committed tree: %s", d)
	}
}

// The suite is exactly the locks analyzer, with a Run over the
// whole-load Pass.
func TestAnalyzersRegistered(t *testing.T) {
	want := map[string]bool{"locks": true}
	as := lint.Analyzers()
	if len(as) != len(want) {
		t.Errorf("got %d analyzers, want %d", len(as), len(want))
	}
	for _, a := range as {
		if !want[a.Name] {
			t.Errorf("analyzer %q registered; want only %v", a.Name, want)
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %s missing Doc or Run", a.Name)
		}
	}
}
