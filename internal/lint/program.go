package lint

import "go/token"

// Program is the whole-load view every analyzer's Pass embeds: the
// loaded target packages and the static call graph over all of them.
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package
	// Graph is the FullName-keyed static call graph (see callgraph.go).
	Graph *CallGraph
}

// NewProgram builds the shared analysis state over the loaded packages.
func NewProgram(pkgs []*Package) *Program {
	prog := &Program{Pkgs: pkgs, Graph: buildCallGraph(pkgs)}
	for _, pkg := range pkgs {
		prog.Fset = pkg.Fset
	}
	return prog
}
