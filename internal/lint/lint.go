// Package lint is a self-contained static-analysis framework plus the
// analyzers that machine-check this repository's correctness invariants:
//
//   - planmut: cached *core.Plan values are immutable after construction,
//     and the slices its accessors share must never be written through
//     (the planner LRU hands one plan to many goroutines; §4's "any M
//     intact cooked packets reconstruct the document" dies silently if a
//     cached plan is mutated).
//   - gfarith: parity rows are GF(2^8)-linear combinations; byte-valued
//     field elements must go through gf256.Add/Mul/Div, never integer
//     +, -, *, /. Index arithmetic stays int-typed and is untouched.
//   - lockscope: mutexes must not be held across channel operations,
//     network I/O, or plan builds (the singleflight deadlock shape the
//     planner explicitly avoids by dropping its lock around
//     core.NewPlan).
//   - errwrap: errors crossing the planner/transport/gateway package
//     boundaries must be wrapped with %w (or carried as a typed
//     *planner.RequestError) so the client-facing 404/400 mapping keeps
//     seeing the chain.
//   - lockorder: the global mutex acquisition-order graph (built over a
//     cross-package call graph, see callgraph.go/program.go) must be
//     acyclic — planner.mu strictly outside the cache mutex, and the
//     cache never calls back.
//   - goroleak: goroutines need an exit path; no unconditional loops
//     without a way out, no bare unbuffered sends in goroutine loops
//     (the historic transport reader-leak shape).
//   - nondet: the packages feeding golden traces, seeded chaos and
//     cache keys must not read wall clocks, draw unseeded randomness,
//     or leak map iteration order into output (//mobweb:nondet-ok opts
//     genuinely wall-clock lines out).
//   - hotalloc: //mobweb:hot functions — the GF(2^8) kernels, CRC,
//     packet marshal, frame append/write — must not allocate (fmt,
//     make, growing append, boxing), guarding the zero-alloc wins.
//
// The framework mirrors the golang.org/x/tools go/analysis API surface
// (Analyzer, Pass, Reportf, analysistest-style fixtures with // want
// comments) but is built only on the standard library: the container
// has no module proxy access, so x/tools cannot be a dependency.
// Packages are loaded offline via `go list -deps -export -json` and the
// compiler's export data (see load.go).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one static check, in the image of analysis.Analyzer.
// Exactly one of Run and RunProgram is set: Run sees one package at a
// time, RunProgram sees the whole load (call graph included) at once.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //lint:allow
	// suppressions.
	Name string
	// Doc is the one-paragraph description shown by `mobweblint -help`.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass) error
	// RunProgram inspects the whole program: every target package plus
	// the cross-package call graph (see program.go). Program analyzers
	// run before per-package ones so they can suppress subsumed
	// findings (lockorder absorbing lockscope symptoms).
	RunProgram func(*ProgramPass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	// allow maps "file:line" to the analyzer names suppressed there by a
	// //lint:allow comment.
	allow map[string]map[string]bool
	// report receives every non-suppressed diagnostic.
	report func(Diagnostic)
}

// Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String formats the diagnostic the way compilers and vet do.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a finding unless the line carries a matching
// //lint:allow suppression.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	key := fmt.Sprintf("%s:%d", position.Filename, position.Line)
	if names, ok := p.allow[key]; ok && (names[p.Analyzer.Name] || names["all"]) {
		return
	}
	p.report(Diagnostic{Pos: position, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Analyzers returns every registered analyzer, the multichecker's suite.
// Program-wide analyzers (lockorder, nondet) share one whole-program
// view per run; the rest see one package at a time.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		PlanMut, FrameMut, GFArith, LockScope, ErrWrap,
		LockOrder, GoroLeak, NonDet, HotAlloc,
	}
}

// buildAllow scans file comments for //lint:allow suppressions. The
// comment applies to the line it sits on:
//
//	frame[0] += 1 //lint:allow gfarith (wire header, not a field element)
//
// Multiple analyzers may be listed, comma- or space-separated; "all"
// suppresses every analyzer on the line.
func buildAllow(fset *token.FileSet, files []*ast.File) map[string]map[string]bool {
	allow := make(map[string]map[string]bool)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:allow")
				if !ok {
					continue
				}
				if i := strings.Index(text, "("); i >= 0 {
					text = text[:i]
				}
				pos := fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				if allow[key] == nil {
					allow[key] = make(map[string]bool)
				}
				for _, name := range strings.FieldsFunc(text, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' }) {
					allow[key][name] = true
				}
			}
		}
	}
	return allow
}

// calleeFunc resolves a call expression to the static *types.Func it
// invokes (method or package-level function), or nil for builtins,
// conversions and indirect calls through function values. A method of an
// instantiated generic type resolves to its declaration (Origin), so
// Cache[Key, []byte].Get is Cache[K, V].Get to every analyzer.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			obj = sel.Obj()
		} else {
			obj = info.Uses[fun.Sel] // qualified identifier pkg.Func
		}
	case *ast.Ident:
		obj = info.Uses[fun]
	}
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return nil
}

// calleeFullName returns types.Func.FullName() for the call's static
// callee, e.g. "(*mobweb/internal/core.Plan).Segments" or
// "mobweb/internal/core.NewPlan"; empty when unresolvable.
func calleeFullName(info *types.Info, call *ast.CallExpr) string {
	if fn := calleeFunc(info, call); fn != nil {
		return fn.FullName()
	}
	return ""
}

// isByte reports whether t's underlying type is byte/uint8.
func isByte(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint8
}

// namedOrPointee unwraps one level of pointer and returns the named type
// beneath, or nil.
func namedOrPointee(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// forEachFunc invokes fn for every function body in the files, named
// after the enclosing declaration. Function literals inherit the nearest
// named function's name (a closure inside newPlan is still constructor
// code), which the callers use for allowlist decisions.
func forEachFunc(files []*ast.File, fn func(name string, body *ast.BlockStmt)) {
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn(fd.Name.Name, fd.Body)
		}
	}
}
