package census

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeDesign(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "DESIGN.md")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const design = "## 21. Before\n\n#### `cmd`\n\n| `-ignored` | `1` | outside §22 |\n\n" +
	"## 22. Census\n\n#### `cmd`\n\n| Flag | Default | Set by |\n|---|---|---|\n" +
	"| `-addr` | — | deployment |\n| `-n` | `3` | `TestN` |\n\n" +
	"#### `pkg.Options`\n\n| `Field` | 0 | `TestField` |\n\n## 23. After\n"

func TestCheckFlags(t *testing.T) {
	path := writeDesign(t, design)
	fs := flag.NewFlagSet("cmd", flag.ContinueOnError)
	fs.String("addr", "", "")
	n := fs.Int("n", 3, "")
	if err := CheckFlags(path, fs); err != nil {
		t.Fatalf("flags matching their rows: %v", err)
	}

	fs = flag.NewFlagSet("cmd", flag.ContinueOnError)
	fs.String("addr", "", "")
	fs.IntVar(n, "n", 4, "")
	fs.Bool("new", false, "")
	err := CheckFlags(path, fs)
	for _, want := range []string{`-n: DESIGN.md §22 says default "3", the flag's is "4"`, "-new: no row"} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("error %v does not name %q", err, want)
		}
	}
}

func TestCheckFields(t *testing.T) {
	path := writeDesign(t, design)
	if err := Check(path, "pkg.Options", map[string]string{"Field": ""}, false); err != nil {
		t.Fatalf("fields matching their rows: %v", err)
	}
	err := Check(path, "pkg.Options", map[string]string{"Other": ""}, false)
	for _, want := range []string{"Other: no row", "Field: DESIGN.md §22 has a row for a knob that is gone"} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("error %v does not name %q", err, want)
		}
	}
}

func TestTableRejectsRowWithoutSetter(t *testing.T) {
	path := writeDesign(t, "## 22. Census\n\n#### `cmd`\n\n| `-addr` | — |  |\n")
	if _, err := Table(path); err == nil {
		t.Error("a row that names no setter was accepted")
	}
}
