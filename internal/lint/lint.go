// Package lint is a self-contained static-analysis framework plus the
// analyzers that machine-check this repository's correctness invariants:
//
//   - planmut: cached *core.Plan values are immutable after construction,
//     and the slices its accessors share must never be written through
//     (the planner LRU hands one plan to many goroutines; §4's "any M
//     intact cooked packets reconstruct the document" dies silently if a
//     cached plan is mutated).
//   - framemut: the same contract for cooked wire frames handed out by
//     the frame cache and planner.Resolved.
//   - gfarith: parity rows are GF(2^8)-linear combinations; byte-valued
//     field elements must go through gf256.Add/Mul/Div, never integer
//     +, -, *, /. Index arithmetic stays int-typed and is untouched.
//   - locks: mutexes must not be held across channel operations, network
//     I/O, plan builds, waits or sleeps, and the global mutex
//     acquisition-order graph (built over the cross-package call graph)
//     must be acyclic — planner.mu strictly outside the cache mutex, and
//     the cache never calls back.
//   - errwrap: errors crossing the planner/transport/gateway package
//     boundaries must be wrapped with %w (or carried as a typed
//     *planner.RequestError) so the client-facing 404/400 mapping keeps
//     seeing the chain.
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
// comments) but is built only on the standard library, so the module
// keeps zero dependencies. Packages are loaded offline via
// `go list -deps -export -json` and the compiler's export data
// (load.go). Every analyzer sees the whole load through one Pass: the
// packages, the static call graph (callgraph.go) and the index of
// //lint:allow and //mobweb: comments (program.go).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one static check, in the image of analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //lint:allow
	// suppressions.
	Name string
	// Doc is the one-paragraph description shown by `mobweblint -help`.
	Doc string
	// Run inspects the whole load and reports findings through the pass.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of the whole load.
type Pass struct {
	*Program
	Analyzer *Analyzer

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
	if p.comments.on(position, "lint:allow "+p.Analyzer.Name) || p.comments.on(position, "lint:allow all") {
		return
	}
	p.report(Diagnostic{Pos: position, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Analyzers returns every registered analyzer, the multichecker's suite.
func Analyzers() []*Analyzer {
	return []*Analyzer{PlanMut, FrameMut, GFArith, Locks, ErrWrap, GoroLeak, NonDet, HotAlloc}
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

// inspectSkippingFuncLits is ast.Inspect minus function-literal bodies;
// a nil root visits nothing.
func inspectSkippingFuncLits(root ast.Node, visit func(ast.Node)) {
	ast.Inspect(root, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok || n == nil {
			return false
		}
		visit(n)
		return true
	})
}

// sortedKeys returns the map's keys sorted, nil-safe.
func sortedKeys[V any](m map[string]V) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// shortFunc trims package paths inside a FullName:
// "(*mobweb/internal/framecache.Cache[K, V]).Invalidate" →
// "(*framecache.Cache[K, V]).Invalidate".
func shortFunc(full string) string {
	if i := strings.LastIndex(full, "/"); i >= 0 {
		prefix := full[:i]
		if j := strings.LastIndexAny(prefix, "(* "); j >= 0 {
			return prefix[:j+1] + full[i+1:]
		}
		return full[i+1:]
	}
	return full
}
