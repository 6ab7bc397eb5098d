package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// Program is the whole-load view every analyzer's Pass embeds: the
// loaded target packages, the static call graph over all of them, and
// the index of //lint:allow and //mobweb: comments.
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

// commentIndex records, per file line, the names the comments covering
// that line carry: "lint:allow <analyzer>" for a suppression and
// "mobweb:<name>" for a directive. The two forms differ in intent —
// //lint:allow drops a finding already raised, a //mobweb: directive
// changes what an analyzer looks at:
//
//	//lint:allow gfarith (wire header, not a field element)
//	//mobweb:nondet-ok deadlines are wall-clock by nature
//	//mobweb:hot per-frame kernel
//
// and in what they cover. //lint:allow covers its own line only; several
// analyzers may be listed, comma- or space-separated, and "all" covers
// every analyzer. A //mobweb: directive covers its own line, the next
// line too when the comment stands alone (so it can sit above a long
// statement), and the whole body when it is a line of a function's doc
// comment. Reason text is for humans and is not parsed.
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
			names, directive := parseComment(c.Text)
			if len(names) == 0 {
				continue
			}
			pos := fset.Position(c.Pos())
			from, to := pos.Line, pos.Line
			if directive {
				if code == nil {
					code = codeLines(fset, f)
				}
				if !code[pos.Line] {
					to++
				}
				if body := docBody[cg]; body != nil {
					to = max(to, fset.Position(body.Rbrace).Line)
				}
			}
			for _, name := range names {
				for line := from; line <= to; line++ {
					idx[commentKey{pos.Filename, line, name}] = true
				}
			}
		}
	}
}

// parseComment returns the index names one comment carries — one
// "lint:allow <analyzer>" per analyzer a //lint:allow lists (the
// parenthesized reason dropped), or "mobweb:<name>" for a //mobweb:
// directive — and whether it is a directive.
func parseComment(text string) (names []string, directive bool) {
	if rest, ok := strings.CutPrefix(text, "//lint:allow"); ok {
		rest, _, _ = strings.Cut(rest, "(")
		for _, name := range strings.FieldsFunc(rest, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' }) {
			names = append(names, "lint:allow "+name)
		}
		return names, false
	}
	if rest, ok := strings.CutPrefix(text, "//mobweb:"); ok {
		if fields := strings.Fields(rest); len(fields) > 0 {
			return []string{"mobweb:" + fields[0]}, true
		}
	}
	return nil, false
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
