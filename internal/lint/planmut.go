package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Configuration for PlanMut. Vars (not consts) so fixture tests can
// retarget them at testdata packages.
var (
	// PlanOwnerPackage is the only package allowed to write fields of the
	// protected plan types, and then only inside constructor-shaped
	// functions.
	PlanOwnerPackage = "mobweb/internal/core"
	// planOwnerTypes are the struct types whose fields are frozen after
	// construction. generation is unexported but lives behind every
	// cached plan, so it is covered too.
	planOwnerTypes = map[string]bool{"Plan": true, "generation": true}
	// SharedPlanAccessors return slices that alias cache-owned plan
	// state. Their results must be treated as read-only; writing through
	// them corrupts the plan for every goroutine sharing it.
	SharedPlanAccessors = map[string]bool{
		"(*mobweb/internal/core.Plan).Segments":        true,
		"(*mobweb/internal/core.Plan).AccrualSegments": true,
		"(*mobweb/internal/core.Plan).CookedPayload":   true,
	}
)

// PlanMut enforces the planner cache's immutability contract. Cached
// *core.Plan values are shared across goroutines by the planner LRU; the
// paper's FT guarantee ("any M intact cooked packets reconstruct the
// document", §4) silently breaks if a plan mutates after construction.
//
// Two rules:
//
//  1. Inside the owner package, fields of Plan/generation may only be
//     assigned in constructor-shaped functions (New*, new*).
//  2. Everywhere, slices obtained from the shared accessors (Segments,
//     AccrualSegments, CookedPayload) must not be written through:
//     element/field stores, append with such a slice as destination,
//     and copy into it are all flagged. Re-slicing keeps the taint
//     (sub[0] = x still writes the plan); append([]T(nil), s...) and
//     other fresh-destination copies clear it.
var PlanMut = &Analyzer{
	Name: "planmut",
	Doc: "flag writes to cache-owned plan state: core.Plan/generation field stores outside constructors, " +
		"and stores through the shared slices returned by Plan.Segments/AccrualSegments/CookedPayload",
	Run: runPlanMut,
}

func runPlanMut(pass *Pass) error {
	for _, pkg := range pass.Pkgs {
		forEachFunc(pkg.Files, func(name string, body *ast.BlockStmt) {
			if pkg.PkgPath == PlanOwnerPackage {
				checkOwnerWrites(pass, pkg.Info, name, body)
			}
			checkSharedSliceWrites(pass, pkg.Info, body, SharedPlanAccessors, "a cached plan")
		})
	}
	return nil
}

// checkOwnerWrites flags field stores on protected types outside
// constructor-shaped functions (rule 1). Closures inherit the enclosing
// declaration's name via forEachFunc, so a literal inside a constructor
// stays allowed.
func checkOwnerWrites(pass *Pass, info *types.Info, funcName string, body *ast.BlockStmt) {
	if strings.HasPrefix(funcName, "New") || strings.HasPrefix(funcName, "new") {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				reportProtectedFieldWrite(pass, info, lhs, funcName)
			}
		case *ast.IncDecStmt:
			reportProtectedFieldWrite(pass, info, st.X, funcName)
		}
		return true
	})
}

// reportProtectedFieldWrite walks an assignment target down to its base
// selector and reports it when the selector's receiver is a protected
// plan type. p.m = 3, p.segments[i] = s and g.parity = rows all reduce
// to a selector on Plan/generation.
func reportProtectedFieldWrite(pass *Pass, info *types.Info, lhs ast.Expr, funcName string) {
	for {
		switch e := ast.Unparen(lhs).(type) {
		case *ast.IndexExpr:
			lhs = e.X
			continue
		case *ast.SliceExpr:
			lhs = e.X
			continue
		case *ast.SelectorExpr:
			named := namedOrPointee(info.Types[e.X].Type)
			if named != nil && named.Obj().Pkg() != nil &&
				named.Obj().Pkg().Path() == PlanOwnerPackage && planOwnerTypes[named.Obj().Name()] {
				pass.Reportf(e.Pos(), "write to %s.%s outside a constructor (in %s): plans are immutable once cached",
					named.Obj().Name(), e.Sel.Name, funcName)
				return
			}
			lhs = e.X
			continue
		default:
			return
		}
	}
}

// checkSharedSliceWrites performs a source-order taint walk of one
// function body. Locals assigned from a shared accessor — or
// re-slices/aliases of one — are tainted; stores through tainted values
// are reported; assigning a fresh value to the local clears the taint.
// The accessor set and the owner noun ("a cached plan", "the frame
// cache") are parameters, so planmut and framemut share the machinery.
func checkSharedSliceWrites(pass *Pass, info *types.Info, body *ast.BlockStmt, accessors map[string]bool, owner string) {
	tainted := make(map[types.Object]bool)

	taintSource := func(rhs ast.Expr) bool {
		switch e := ast.Unparen(rhs).(type) {
		case *ast.CallExpr:
			return accessors[calleeFullName(info, e)]
		case *ast.Ident:
			return tainted[info.Uses[e]]
		case *ast.SliceExpr:
			if id, ok := ast.Unparen(e.X).(*ast.Ident); ok {
				return tainted[info.Uses[id]]
			}
			if call, ok := ast.Unparen(e.X).(*ast.CallExpr); ok {
				return accessors[calleeFullName(info, call)]
			}
		}
		return false
	}

	// taintedBase reports whether a store target's base slice is shared:
	// either a tainted local (through any indexing/slicing/field chain)
	// or a direct accessor call like p.Segments()[0].
	var taintedBase func(e ast.Expr) bool
	taintedBase = func(e ast.Expr) bool {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			return tainted[info.Uses[e]]
		case *ast.IndexExpr:
			return taintedBase(e.X)
		case *ast.SliceExpr:
			return taintedBase(e.X)
		case *ast.SelectorExpr:
			// A field write THROUGH an indexed tainted slice
			// (segs[i].Score = x). A plain selector base (x.f) is the
			// owner-package rule's business, not taint's.
			return taintedBase(e.X)
		case *ast.CallExpr:
			return accessors[calleeFullName(info, e)]
		}
		return false
	}

	// storeTarget reports whether lhs writes through a tainted slice:
	// it must pass at least one IndexExpr on the way down (writing
	// segs[0] or segs[0].Score mutates shared backing memory; rebinding
	// the variable itself does not).
	storeThroughShared := func(lhs ast.Expr) bool {
		for {
			switch e := ast.Unparen(lhs).(type) {
			case *ast.IndexExpr:
				return taintedBase(e.X)
			case *ast.SelectorExpr:
				lhs = e.X
			case *ast.SliceExpr:
				lhs = e.X
			default:
				return false
			}
		}
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				if storeThroughShared(lhs) {
					pass.Reportf(lhs.Pos(), "store through a slice shared with %s; copy it before modifying", owner)
				}
			}
			// Propagate / clear taint after checking stores. Only the
			// single-RHS forms matter for accessor results (CookedPayload
			// returns (slice, error): value 0 is the slice).
			if len(st.Rhs) == 1 {
				src := taintSource(st.Rhs[0])
				if id, ok := ast.Unparen(st.Lhs[0]).(*ast.Ident); ok && id.Name != "_" {
					obj := info.Defs[id]
					if obj == nil {
						obj = info.Uses[id]
					}
					if obj != nil {
						tainted[obj] = src
					}
				}
			}
		case *ast.IncDecStmt:
			if storeThroughShared(st.X) {
				pass.Reportf(st.X.Pos(), "store through a slice shared with %s; copy it before modifying", owner)
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(st.Fun).(*ast.Ident); ok {
				switch id.Name {
				case "append":
					if len(st.Args) > 0 && taintSource(st.Args[0]) {
						pass.Reportf(st.Args[0].Pos(), "append to a slice shared with %s may write its backing array; copy it first (append([]T(nil), s...))", owner)
					}
				case "copy":
					if len(st.Args) == 2 && taintSource(st.Args[0]) {
						pass.Reportf(st.Args[0].Pos(), "copy into a slice shared with %s; copy FROM it into a fresh slice instead", owner)
					}
				}
			}
		}
		return true
	})
}
