package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoroLeak flags goroutines with no guaranteed exit path — the redial /
// resume and chaos-injector code is where these bite: a leaked reader
// per reconnect is invisible in tests and fatal in a fleet. Two shapes
// are reported, both modeled on the historic transport reader leak
// (server.go's handle() now documents the fix):
//
//  1. A goroutine whose body contains an unconditional `for { ... }`
//     loop with no way out: no return, no break binding to that loop
//     (a break inside a nested select does NOT exit the loop — the
//     exact misreading behind the historic leak), no goto, no terminal
//     call. Loops over channels (`for v := range ch`) are exempt:
//     closing the channel is their exit path.
//
//  2. A plain (non-select) send inside a loop in a goroutine, on a
//     channel the package demonstrably makes unbuffered: when the
//     receiver stops receiving — client gone, error return upstream —
//     the send blocks forever and pins the goroutine. Sends wrapped in
//     a select (with a done/cancel case) and sends on channels that are
//     buffered or of unknown origin are silent.
var GoroLeak = &Analyzer{
	Name: "goroleak",
	Doc: "flag goroutines without an exit path: unconditional loops that cannot terminate, and " +
		"bare sends on unbuffered channels inside goroutine loops (the leaked-reader shape)",
	Run: runGoroLeak,
}

func runGoroLeak(pass *Pass) error {
	reported := make(map[token.Pos]bool)
	for _, pkg := range pass.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					if body := goroutineBody(pass, pkg, g); body != nil {
						checkGoroutineBody(pass, pkg, body, reported)
					}
				}
				return true
			})
		}
	}
	return nil
}

// goroutineBody resolves the body a go statement spawns: a literal's
// body, or the declaration of a same-package function. Cross-package
// spawns return nil — that body is checked with its own package.
func goroutineBody(pass *Pass, pkg *Package, g *ast.GoStmt) *ast.BlockStmt {
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		return lit.Body
	}
	if node := pass.Graph.Nodes[calleeFullName(pkg.Info, g.Call)]; node != nil && node.Pkg == pkg {
		return node.Body
	}
	return nil
}

func checkGoroutineBody(pass *Pass, pkg *Package, body *ast.BlockStmt, reported map[token.Pos]bool) {
	report := func(pos token.Pos, format string, args ...any) {
		if !reported[pos] {
			reported[pos] = true
			pass.Reportf(pos, format, args...)
		}
	}

	// Shape 1: unconditional loops with no exit. Labels are tracked so
	// `break outer` counts as an exit of the labeled loop.
	var labels []string
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		switch s := n.(type) {
		case *ast.FuncLit:
			// A nested literal is its own goroutine only if spawned by a
			// nested GoStmt, which the file-level inspect finds itself.
			return
		case *ast.LabeledStmt:
			labels = append(labels, s.Label.Name)
			walk(s.Stmt)
			labels = labels[:len(labels)-1]
			return
		case *ast.ForStmt:
			if s.Cond == nil {
				label := ""
				if len(labels) > 0 {
					label = labels[len(labels)-1]
				}
				if !loopExits(pkg.Info, s.Body, label) {
					report(s.Pos(), "goroutine loops forever with no exit path (no return, break, or terminal call); add a done/context case so shutdown can reach it")
				}
			}
		}
		if n != nil {
			walkChildren(n, walk)
		}
	}
	for _, st := range body.List {
		walk(st)
	}

	// Shape 2: bare unbuffered sends inside loops.
	checkBareSends(pkg, body, false, report)
}

// checkBareSends walks the goroutine body looking for plain SendStmts
// inside loops. Sends appearing as a select's comm clause are skipped —
// the select is the fix this analyzer asks for.
func checkBareSends(pkg *Package, n ast.Node, inLoop bool, report func(token.Pos, string, ...any)) {
	switch s := n.(type) {
	case *ast.FuncLit:
		return
	case *ast.ForStmt:
		if s.Init != nil {
			checkBareSends(pkg, s.Init, inLoop, report)
		}
		checkBareSends(pkg, s.Body, true, report)
		return
	case *ast.RangeStmt:
		checkBareSends(pkg, s.Body, true, report)
		return
	case *ast.SelectStmt:
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok {
				// The comm operation itself is select-guarded; only the
				// case bodies keep the current loop context.
				for _, st := range cc.Body {
					checkBareSends(pkg, st, inLoop, report)
				}
			}
		}
		return
	case *ast.SendStmt:
		if inLoop {
			if obj := chanObject(pkg.Info, s.Chan); obj != nil && packageMakesUnbuffered(pkg, obj) {
				report(s.Pos(), "send on unbuffered channel %s inside a goroutine loop with no select: if the receiver stops (error return, client gone) this goroutine blocks forever; select on it with a done channel", obj.Name())
			}
		}
	}
	if n != nil {
		walkChildren(n, func(c ast.Node) { checkBareSends(pkg, c, inLoop, report) })
	}
}

// chanObject resolves the channel expression to its variable, nil when
// it isn't a simple variable or field reference.
func chanObject(info *types.Info, e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.Uses[x]
	case *ast.SelectorExpr:
		return info.Uses[x.Sel]
	}
	return nil
}

// packageMakesUnbuffered reports whether the package contains a
// `make(chan T)` (or explicit zero capacity) assigned to the object.
// Finding no make at all — a parameter, a channel made elsewhere —
// reports false: the analyzer only speaks when it can see the capacity.
func packageMakesUnbuffered(pkg *Package, obj types.Object) bool {
	info := pkg.Info
	unbuffered := false
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				if len(s.Lhs) != len(s.Rhs) {
					return true
				}
				for i, lhs := range s.Lhs {
					if chanObject(info, lhs) == obj || identDefines(info, lhs, obj) {
						if isUnbufferedMake(info, s.Rhs[i]) {
							unbuffered = true
						}
					}
				}
			case *ast.ValueSpec:
				for i, name := range s.Names {
					if info.Defs[name] == obj && i < len(s.Values) {
						if isUnbufferedMake(info, s.Values[i]) {
							unbuffered = true
						}
					}
				}
			}
			return !unbuffered
		})
		if unbuffered {
			break
		}
	}
	return unbuffered
}

// identDefines reports whether e is an identifier that := -defines obj.
func identDefines(info *types.Info, e ast.Expr, obj types.Object) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && info.Defs[id] == obj
}

// isUnbufferedMake reports whether e is make(chan T) or make(chan T, 0).
func isUnbufferedMake(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "make" {
		return false
	}
	if _, ok := info.Uses[id].(*types.Builtin); !ok {
		return false
	}
	if len(call.Args) == 0 {
		return false
	}
	t := info.Types[call.Args[0]]
	if !t.IsType() {
		return false
	}
	if _, ok := t.Type.Underlying().(*types.Chan); !ok {
		return false
	}
	if len(call.Args) == 1 {
		return true
	}
	cap := info.Types[call.Args[1]]
	return cap.Value != nil && cap.Value.String() == "0"
}

// loopExits reports whether control can leave the loop from inside its
// body: a return; a break that binds to THIS loop (bare break not
// swallowed by a nested for/switch/select, or a labeled break naming
// this loop's label); a goto (conservatively an exit); or a terminal
// call (panic, os.Exit, runtime.Goexit, log.Fatal*, testing Fatal*).
// Function literals inside the body are not part of the loop's control
// flow and are skipped.
func loopExits(info *types.Info, body *ast.BlockStmt, label string) bool {
	exits := false
	var walk func(n ast.Node, depth int)
	walk = func(n ast.Node, depth int) {
		if exits || n == nil {
			return
		}
		switch s := n.(type) {
		case *ast.FuncLit:
			return
		case *ast.ReturnStmt:
			exits = true
			return
		case *ast.BranchStmt:
			exits = s.Tok == token.GOTO || s.Tok == token.BREAK &&
				(s.Label == nil && depth == 0 || s.Label != nil && s.Label.Name == label)
			return
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			// A bare break in here binds to the nested statement.
			walkChildren(s, func(c ast.Node) { walk(c, depth+1) })
			return
		case *ast.CallExpr:
			if isTerminalCall(info, s) {
				exits = true
				return
			}
		}
		walkChildren(n, func(c ast.Node) { walk(c, depth) })
	}
	for _, st := range body.List {
		walk(st, 0)
	}
	return exits
}

// walkChildren visits n's direct children once each.
func walkChildren(n ast.Node, visit func(ast.Node)) {
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			visit(c)
		}
		return false
	})
}

// isTerminalCall reports whether the call never returns.
func isTerminalCall(info *types.Info, call *ast.CallExpr) bool {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
		return true
	}
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() + "." + fn.Name() {
	case "os.Exit", "runtime.Goexit", "log.Fatal", "log.Fatalf", "log.Fatalln",
		"testing.Fatal", "testing.Fatalf", "testing.FailNow", "testing.Skip",
		"testing.Skipf", "testing.SkipNow":
		return true
	}
	return false
}
