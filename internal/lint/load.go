package lint

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	PkgPath string
	Dir     string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Error      *struct{ Err string }
}

// Load type-checks the packages matched by the patterns (relative to
// dir), entirely offline. It shells out to `go list -deps -export -json`,
// which compiles each dependency and reports the path of its export
// data; the targets themselves are then parsed from source and checked
// against that export data with the standard gc importer. This is the
// same division of labour as golang.org/x/tools/go/packages in
// LoadSyntax mode, minus the dependency on x/tools (unavailable here:
// the build environment has no module proxy access).
//
// Explicit testdata paths (e.g. "./testdata/src/lockorder") are legal
// patterns even though "./..." never matches them — exactly how the
// analyzer fixtures stay out of the production lint run.
func Load(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-deps", "-export", "-json=ImportPath,Dir,GoFiles,Export,DepOnly,Error", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list %v: %v\n%s", patterns, err, stderr.String())
	}

	exports, targets, err := decodeListOutput(out)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", exportLookup(exports))

	var pkgs []*Package
	for _, t := range targets {
		var files []*ast.File
		for _, name := range t.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("lint: %w", err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(t.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("lint: type-checking %s: %w", t.ImportPath, err)
		}
		pkgs = append(pkgs, &Package{
			PkgPath: t.ImportPath,
			Dir:     t.Dir,
			Fset:    fset,
			Files:   files,
			Types:   tpkg,
			Info:    info,
		})
	}
	return pkgs, nil
}

// decodeListOutput parses the JSON stream `go list -deps -export -json`
// produces into the export-data index and the (sorted) target packages.
// Any per-package error — a type error in a dependency, an import cycle
// — is surfaced here rather than half-loading.
func decodeListOutput(out []byte) (exports map[string]string, targets []listPackage, err error) {
	exports = make(map[string]string)
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		if p.Error != nil {
			return nil, nil, fmt.Errorf("lint: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			targets = append(targets, p)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })
	return exports, targets, nil
}

// exportLookup adapts the ImportPath→export-file index to the reader
// interface importer.ForCompiler wants. Stdlib-vendored modules need a
// remap: net/http's source says `import "golang.org/x/net/http/httpguts"`
// — the path the importer asks for — but go list reports that package
// (and its export file) as "vendor/golang.org/x/net/http/httpguts".
func exportLookup(exports map[string]string) func(path string) (io.ReadCloser, error) {
	return func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			file, ok = exports["vendor/"+path]
		}
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(file)
	}
}

// Run loads the patterns and applies every analyzer to the whole load,
// returning the findings sorted by position.
func Run(dir string, patterns []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	pkgs, err := Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	prog := NewProgram(pkgs)
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{Program: prog, Analyzer: a, report: func(d Diagnostic) { diags = append(diags, d) }}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: %s: %w", a.Name, err)
		}
	}
	slices.SortFunc(diags, func(a, b Diagnostic) int {
		return cmp.Or(
			strings.Compare(a.Pos.Filename, b.Pos.Filename),
			cmp.Compare(a.Pos.Line, b.Pos.Line),
			cmp.Compare(a.Pos.Column, b.Pos.Column),
			strings.Compare(a.Analyzer, b.Analyzer))
	})
	return diags, nil
}
