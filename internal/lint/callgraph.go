package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"maps"
)

// The call graph is keyed by types.Func.FullName() strings rather than
// *types.Func identity: every target package is type-checked separately
// against export data, so the *types.Func for planner.Resolve seen while
// checking package transport is a different object from the one seen
// while checking package planner itself. FullName ("(*mobweb/internal/
// planner.Planner).Resolve") is stable across those views.

// FuncNode is one function (declaration or literal) in the loaded
// program.
type FuncNode struct {
	// Name is the FullName key: "(pkg.Type).Method", "pkg.Func", or for
	// function literals "enclosing$N" in source order.
	Name string
	// Pkg is the loaded package containing the body.
	Pkg *Package
	// Decl is the named declaration, nil for literals.
	Decl *ast.FuncDecl
	// Body is the function's block.
	Body *ast.BlockStmt
	// Calls are the static call sites in the body, excluding those inside
	// nested literals (which get their own nodes).
	Calls []CallSite
}

// CallSite is one static call from a function body.
type CallSite struct {
	// Callee is the target's FullName; always non-empty (dynamic calls
	// through function values are not recorded).
	Callee string
	// Call is the call expression, for positions.
	Call *ast.CallExpr
	// Go marks `go f(...)`: the callee runs on a new goroutine, not under
	// the caller's locks.
	Go bool
}

// CallGraph is the whole-program static call graph over every function
// body in the loaded target packages. External callees (stdlib, export-
// data-only deps) appear as edge targets but have no node.
type CallGraph struct {
	Nodes map[string]*FuncNode
}

// SortedNames returns every node name in deterministic order, so walks
// over the graph produce stable diagnostics.
func (g *CallGraph) SortedNames() []string {
	return sortedKeys(g.Nodes)
}

// buildCallGraph indexes every function body across the packages.
func buildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{Nodes: make(map[string]*FuncNode)}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					g.collect(&FuncNode{Name: declFullName(pkg, fd), Pkg: pkg, Decl: fd, Body: fd.Body})
				}
			}
		}
	}
	return g
}

// collect adds the node and records the call sites directly inside its
// body; nested literals become nodes of their own, named parent$1,
// parent$2, ... in source order.
func (g *CallGraph) collect(node *FuncNode) {
	g.Nodes[node.Name] = node
	litCount := 0
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			litCount++
			g.collect(&FuncNode{Name: fmt.Sprintf("%s$%d", node.Name, litCount), Pkg: node.Pkg, Body: x.Body})
			return false
		case *ast.GoStmt:
			// The spawn is a go site; the callee expression and the
			// arguments evaluate here, as ordinary code.
			g.site(node, x.Call, true)
			ast.Inspect(x.Call.Fun, visit)
			for _, a := range x.Call.Args {
				ast.Inspect(a, visit)
			}
			return false
		case *ast.CallExpr:
			g.site(node, x, false)
		}
		return true
	}
	ast.Inspect(node.Body, visit)
}

func (g *CallGraph) site(node *FuncNode, call *ast.CallExpr, goStmt bool) {
	name := calleeFullName(node.Pkg.Info, call)
	if name == "" {
		// Dynamic call through a function value — or a call of a literal
		// spelled inline (go func(){...}()), which the literal node
		// already covers.
		return
	}
	node.Calls = append(node.Calls, CallSite{Callee: name, Call: call, Go: goStmt})
}

// declFullName computes the FullName key for a declaration in a loaded
// package, matching what types.Func.FullName() produces for the same
// function seen through export data.
func declFullName(pkg *Package, fd *ast.FuncDecl) string {
	if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
		return obj.FullName()
	}
	// Unresolvable declarations (blank name) fall back to a positional
	// key so the node still exists.
	return fmt.Sprintf("%s.%s@%d", pkg.PkgPath, fd.Name.Name, pkg.Fset.Position(fd.Pos()).Line)
}

// reachableClosure computes, for every node, the union of `direct`
// values over the node's static call-graph closure (itself included).
// It is the shared fixpoint behind "may this function acquire lock
// class C?" and "may this call reach time.Now?". Edges through `go`
// statements are excluded: a spawned goroutine's acquisitions do not
// happen under the caller's locks, nor its clock reads in the caller's
// result.
func reachableClosure(g *CallGraph, direct map[string]map[string]bool) map[string]map[string]bool {
	out := make(map[string]map[string]bool, len(g.Nodes))
	for name, vals := range direct {
		out[name] = maps.Clone(vals)
	}
	// Iterate to fixpoint; the graph is small (one repo), so a simple
	// sweep loop beats maintaining a worklist.
	for changed := true; changed; {
		changed = false
		for _, name := range g.SortedNames() {
			for _, site := range g.Nodes[name].Calls {
				if site.Go {
					continue
				}
				for v := range out[site.Callee] {
					if out[name] == nil {
						out[name] = make(map[string]bool)
					}
					if !out[name][v] {
						out[name][v] = true
						changed = true
					}
				}
			}
		}
	}
	return out
}
