package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// ErrwrapPackages are the boundary packages whose errors feed the
// client-facing status mapping: the gateway turns *planner.RequestError
// into 404/400 via errors.As, and the transport forwards curated
// planner messages. Re-wrapping without %w anywhere in these packages
// severs the chain and silently degrades every client error to a 500.
// A var so fixture tests can extend it.
var ErrwrapPackages = map[string]bool{
	"mobweb/internal/planner":   true,
	"mobweb/internal/transport": true,
	"mobweb/internal/gateway":   true,
}

// ErrWrap requires fmt.Errorf calls in the boundary packages to carry
// error-typed arguments with %w (or to route through the typed
// *planner.RequestError constructors instead). Two shapes are flagged:
//
//	fmt.Errorf("resolve: %v", err)      // chain severed: errors.As fails
//	fmt.Errorf("resolve: %s", e.Error()) // same bug wearing a string
//
// while fmt.Errorf("resolve: %w", err) and the RequestError helpers
// pass. The gateway's writePlanError and the transport's error
// forwarding both depend on the chain surviving to the boundary.
var ErrWrap = &Analyzer{
	Name: "errwrap",
	Doc: "require %w (or typed *planner.RequestError) when fmt.Errorf carries an error across the " +
		"planner/transport/gateway boundaries, so errors.As keeps driving the 404/400/500 mapping",
	Run: runErrWrap,
}

func runErrWrap(pass *Pass) error {
	errorType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	for _, pkg := range pass.Pkgs {
		if !ErrwrapPackages[pkg.PkgPath] {
			continue
		}
		info := pkg.Info
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || calleeFullName(info, call) != "fmt.Errorf" || len(call.Args) < 2 {
					return true
				}
				format, ok := constantString(info, call.Args[0])
				wraps := ok && strings.Contains(format, "%w")
				for _, arg := range call.Args[1:] {
					t := info.Types[arg].Type
					if t != nil && types.Implements(t, errorType) && !wraps {
						pass.Reportf(arg.Pos(), "error crosses the %s boundary without %%w; wrap it (or return a typed *planner.RequestError) so errors.As keeps working", pkg.Types.Name())
						return true
					}
					// err.Error() smuggled in as a string defeats wrapping
					// even when another arg uses %w.
					if inner, ok := ast.Unparen(arg).(*ast.CallExpr); ok {
						if sel, ok := ast.Unparen(inner.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Error" && len(inner.Args) == 0 {
							if rt := info.Types[sel.X].Type; rt != nil && types.Implements(rt, errorType) {
								pass.Reportf(arg.Pos(), "err.Error() flattens the chain at the %s boundary; pass the error itself with %%w", pkg.Types.Name())
							}
						}
					}
				}
				return true
			})
		}
	}
	return nil
}

// constantString evaluates e as a constant string when possible.
func constantString(info *types.Info, e ast.Expr) (string, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
