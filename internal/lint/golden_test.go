package lint_test

import (
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"mobweb/internal/lint"
)

var update = flag.Bool("update", false, "rewrite testdata/fixtures.golden from the current findings")

// TestFixtureDiagnosticsGolden runs the whole suite over every fixture
// package at once and compares the complete findings — exact count and
// full message text, which the substring `// want` regexps do not pin —
// against testdata/fixtures.golden. Regenerate with
//
//	go test ./internal/lint -run TestFixtureDiagnosticsGolden -update
func TestFixtureDiagnosticsGolden(t *testing.T) {
	diags, err := lint.Run(".", []string{"./testdata/src/..."}, lint.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	dir, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	lines := make([]string, len(diags))
	for i, d := range diags {
		d.Pos.Filename = filepath.ToSlash(d.Pos.Filename)
		line := d.Pos.String() + ": " + d.Message
		lines[i] = strings.ReplaceAll(line, filepath.ToSlash(dir)+"/", "")
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"

	golden := filepath.Join("testdata", "fixtures.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("fixture findings differ from %s (rerun with -update after review):\n got:\n%s\nwant:\n%s", golden, got, want)
	}
}
