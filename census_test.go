package mobweb

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"mobweb/internal/census"
)

// optionStruct names the exported structs the knob census covers.
var optionStruct = regexp.MustCompile(`^([A-Z]\w*)?(Options|Config|Policy|Params|Spec)$`)

// TestOptionFieldsMatchCensus holds every field of every exported option
// struct under internal/ to its DESIGN.md §22 row, and every §22 table to
// a struct or a command that still exists. The commands' flags are held
// to their rows by each command's own test.
func TestOptionFieldsMatchCensus(t *testing.T) {
	structs := make(map[string]map[string]string)
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			gen, ok := decl.(*ast.GenDecl)
			if !ok || gen.Tok != token.TYPE {
				continue
			}
			for _, spec := range gen.Specs {
				ts := spec.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				if !ok || !optionStruct.MatchString(ts.Name.Name) {
					continue
				}
				heading := f.Name.Name + "." + ts.Name.Name
				structs[heading] = make(map[string]string)
				for _, field := range st.Fields.List {
					for _, name := range field.Names {
						structs[heading][name.Name] = ""
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(structs) == 0 {
		t.Fatal("no option structs found under internal/")
	}
	for heading, fields := range structs {
		// Field defaults are prose, so only the rows are compared.
		if err := census.Check("DESIGN.md", heading, fields, false); err != nil {
			t.Error(err)
		}
	}

	table, err := census.Table("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	for heading := range table {
		if _, ok := structs[heading]; ok {
			continue
		}
		if _, err := os.Stat(filepath.Join("cmd", heading)); err != nil {
			t.Errorf("DESIGN.md §22 has a table for %q, which is neither an option struct nor a command", heading)
		}
	}
}
