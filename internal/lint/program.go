package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// Program is the whole-load view every analyzer's Pass embeds: the
// loaded target packages, the static call graph over all of them, and
// the index of //mobweb: directives.
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package
	// Graph is the FullName-keyed static call graph (see callgraph.go).
	Graph *CallGraph

	comments commentIndex
}

// NewProgram builds the shared analysis state over the loaded packages.
func NewProgram(pkgs []*Package) *Program {
	prog := &Program{Pkgs: pkgs, Graph: buildCallGraph(pkgs), comments: make(commentIndex)}
	for _, pkg := range pkgs {
		prog.Fset = pkg.Fset
		for _, f := range pkg.Files {
			prog.comments.add(pkg.Fset, f)
		}
	}
	return prog
}

// Directive reports whether the named //mobweb: directive covers pos's
// line.
func (prog *Program) Directive(pos token.Pos, name string) bool {
	return prog.comments.on(prog.Fset.Position(pos), "mobweb:"+name)
}

// commentIndex records, per file line, the "mobweb:<name>" directives
// covering that line. A directive changes what an analyzer looks at:
//
//	//mobweb:nondet-ok deadlines are wall-clock by nature
//
// It covers its own line, the next line too when the comment stands
// alone (so it can sit above a long statement), and the whole body when
// it is a line of a function's doc comment. Reason text is for humans
// and is not parsed.
type commentIndex map[commentKey]bool

type commentKey struct {
	file string
	line int
	name string
}

func (idx commentIndex) on(pos token.Position, name string) bool {
	return idx[commentKey{pos.Filename, pos.Line, name}]
}

// add indexes one file's comments.
func (idx commentIndex) add(fset *token.FileSet, f *ast.File) {
	docBody := make(map[*ast.CommentGroup]*ast.BlockStmt)
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Doc != nil && fd.Body != nil {
			docBody[fd.Doc] = fd.Body
		}
	}
	var code map[int]bool // lines on which code ends, built on first use
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			name := parseDirective(c.Text)
			if name == "" {
				continue
			}
			if code == nil {
				code = codeLines(fset, f)
			}
			pos := fset.Position(c.Pos())
			from, to := pos.Line, pos.Line
			if !code[pos.Line] {
				to++
			}
			if body := docBody[cg]; body != nil {
				to = max(to, fset.Position(body.Rbrace).Line)
			}
			for line := from; line <= to; line++ {
				idx[commentKey{pos.Filename, line, name}] = true
			}
		}
	}
}

// parseDirective returns "mobweb:<name>" for a //mobweb: directive and
// "" for any other comment.
func parseDirective(text string) string {
	if rest, ok := strings.CutPrefix(text, "//mobweb:"); ok {
		if fields := strings.Fields(rest); len(fields) > 0 {
			return "mobweb:" + fields[0]
		}
	}
	return ""
}

// codeLines returns the lines on which some non-comment node ends. A //
// comment runs to the end of its line, so one on such a line trails code;
// one on any other line stands alone.
func codeLines(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := make(map[int]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.Comment, *ast.CommentGroup:
			return false
		}
		lines[fset.Position(n.End()).Line] = true
		return true
	})
	return lines
}
