// Package lint is a self-contained static-analysis framework plus the
// one analyzer that machine-checks an invariant of this repository no
// runtime test pins down:
//
//   - locks: mutexes must not be held across channel operations, network
//     I/O, plan builds, waits or sleeps, and the global mutex
//     acquisition-order graph (built over the cross-package call graph)
//     must be acyclic — planner.mu strictly outside the cache mutex, and
//     the cache never calls back. A lock held across a plan build only
//     convoys the resolutions behind it, and no test fails on that
//     (DESIGN.md §8).
//
// Plan and frame immutability, reproducibility, GF(2^8) arithmetic, %w
// error chains, goroutine exits and the allocation-free hot paths are
// pinned by runtime tests instead (DESIGN.md §8).
//
// The framework mirrors the golang.org/x/tools go/analysis API surface
// (Analyzer, Pass, Reportf, analysistest-style fixtures with // want
// comments) but is built only on the standard library, so the module
// keeps zero dependencies. Packages are loaded offline via
// `go list -deps -export -json` and the compiler's export data
// (load.go). Every analyzer sees the whole load through one Pass: the
// packages and the static call graph (callgraph.go). TestTreeLintsClean
// runs the suite over the tree; `make lint` runs that test.
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
	// Name identifies the analyzer in diagnostics.
	Name string
	// Doc is the one-paragraph description of what it checks.
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

// Reportf records a finding.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: p.Fset.Position(pos), Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Analyzers returns every registered analyzer, the suite TestTreeLintsClean
// runs over the tree.
func Analyzers() []*Analyzer {
	return []*Analyzer{Locks}
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

// namedOrPointee unwraps one level of pointer and returns the named type
// beneath, or nil.
func namedOrPointee(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, _ := t.(*types.Named)
	return n
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
