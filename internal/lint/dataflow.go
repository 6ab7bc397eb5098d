package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the held-lock walker under the locks analyzer: a forward,
// block-structured walk of one function body tracking whether one mutex —
// one receiver spelling, such as "s.mu" — is held, delivering an event
// for everything that happens while it is. The state is a single bool;
// an unlock on an early-return path (if cond { mu.Unlock(); return })
// does not release the fall-through path, branches merge conservatively
// toward "released" (mergeBranches / fallsThrough), and `defer Unlock`
// pins the lock held to function end. Function literals are skipped:
// each is a call-graph node walked on its own (a goroutine body does not
// run under its spawner's lock).

// lockMethods are the sync.Mutex/RWMutex methods the walker models.
// TryLock/TryRLock are deliberately absent: a try-acquire cannot
// deadlock, so it neither starts a critical section nor forms an
// ordering edge.
var lockMethods = map[string]bool{
	"Lock": true, "RLock": true, "Unlock": true, "RUnlock": true,
}

// lockClass classifies call as a mutex method, returning the receiver
// spelling, the method name and the receiver's global lock class.
// Classes are instance-insensitive:
//
//	"pkgpath.Type.field"      a mutex field, any instance of the type
//	"pkgpath.Type.(embedded)" an embedded mutex, any instance
//	"pkgpath.varname"         a package-level mutex variable
//
// Locals and parameters have class "": their ordering is invisible
// across functions. A call that is not a mutex method returns all "".
func lockClass(pkg *Package, call *ast.CallExpr) (class, spell, method string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", "", ""
	}
	fn := calleeFunc(pkg.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" || !lockMethods[fn.Name()] {
		return "", "", ""
	}
	recv := namedOrPointee(pkg.Info.Types[sel.X].Type)
	if recv == nil || recv.Obj().Pkg() == nil {
		return "", "", ""
	}
	spell, method = types.ExprString(sel.X), fn.Name()
	if name := recv.Obj().Name(); name != "Mutex" && name != "RWMutex" {
		// mu is embedded: sel.X's own type is the embedding struct.
		return recv.Obj().Pkg().Path() + "." + name + ".(embedded)", spell, method
	}
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		// s.mu.Lock(): class is the owning type plus field name.
		if owner := namedOrPointee(pkg.Info.Types[x.X].Type); owner != nil && owner.Obj().Pkg() != nil {
			class = owner.Obj().Pkg().Path() + "." + owner.Obj().Name() + "." + x.Sel.Name
		}
	case *ast.Ident:
		// mu.Lock(): only package-level variables form a class.
		if v, ok := pkg.Info.Uses[x].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			class = v.Pkg().Path() + "." + v.Name()
		}
	}
	return class, spell, method
}

// heldEvent is one call or channel operation evaluated while the tracked
// lock is held.
type heldEvent struct {
	// Node is the *ast.CallExpr, a channel send (*ast.SendStmt) or
	// receive (*ast.UnaryExpr), an *ast.SelectStmt, or an *ast.RangeStmt
	// over a channel.
	Node ast.Node
	// Class, Spell and Method are set when Node is itself a mutex call;
	// re-locking the tracked spelling while held is delivered too.
	Class, Spell, Method string
	// HeldClass is the tracked lock's class ("" for locals and
	// parameters), AcquiredAt and AcquireMethod ("Lock" or "RLock") its
	// most recent acquisition.
	HeldClass     string
	AcquiredAt    token.Pos
	AcquireMethod string
}

// heldWalker tracks one receiver spelling through one function body.
type heldWalker struct {
	pkg     *Package
	spell   string
	onEvent func(heldEvent)

	deferred      bool
	class         string
	acquiredAt    token.Pos
	acquireMethod string
}

// walkHeld runs the walker over a body for one receiver spelling.
func walkHeld(pkg *Package, body *ast.BlockStmt, spell string, onEvent func(heldEvent)) {
	w := &heldWalker{pkg: pkg, spell: spell, onEvent: onEvent}
	w.walkList(body.List, false)
}

func (w *heldWalker) walkList(stmts []ast.Stmt, held bool) bool {
	for _, st := range stmts {
		held = w.walkStmt(st, held)
	}
	return held
}

// walkStmt returns the held state after st; a nil st changes nothing.
func (w *heldWalker) walkStmt(st ast.Stmt, held bool) bool {
	switch s := st.(type) {
	case *ast.ExprStmt:
		return w.scanExpr(s.X, held)
	case *ast.DeferStmt:
		// A deferred unlock pins the lock held to function end. Other
		// deferred calls run at exit under an unknowable lock regime;
		// err toward silence and skip the call itself, but the argument
		// expressions evaluate here and now.
		if w.deferUnlocks(s) {
			w.deferred = w.deferred || held
			return held
		}
		return w.scanExprs(held, s.Call.Args...)
	case *ast.GoStmt:
		// The goroutine body runs elsewhere, not under this lock; its
		// arguments evaluate here.
		return w.scanExprs(held, s.Call.Args...)
	case *ast.AssignStmt:
		return w.scanExprs(w.scanExprs(held, s.Rhs...), s.Lhs...)
	case *ast.ReturnStmt:
		return w.scanExprs(held, s.Results...)
	case *ast.IncDecStmt:
		return w.scanExpr(s.X, held)
	case *ast.SendStmt:
		held = w.scanExprs(held, s.Chan, s.Value)
		w.chanOp(s, held)
		return held
	case *ast.SelectStmt:
		// The select is the blocking operation; its cases' operands
		// evaluate on entry, their bodies run after.
		w.chanOp(s, held)
		for _, clause := range s.Body.List {
			cc := clause.(*ast.CommClause)
			switch comm := cc.Comm.(type) {
			case *ast.SendStmt:
				w.scanExprs(held, comm.Chan, comm.Value)
			case *ast.ExprStmt:
				w.scanExpr(recvOperand(comm.X), held)
			case *ast.AssignStmt:
				w.scanExprs(w.scanExpr(recvOperand(comm.Rhs[0]), held), comm.Lhs...)
			}
			w.walkList(cc.Body, held)
		}
		return held
	case *ast.IfStmt:
		held = w.scanExpr(s.Cond, w.walkStmt(s.Init, held))
		bodyHeld := w.walkList(s.Body.List, held)
		elseHeld := held
		elseFalls := true
		if s.Else != nil {
			elseHeld = w.walkStmt(s.Else, held)
			elseFalls = fallsThrough(s.Else)
		}
		return mergeBranches(held,
			branch{bodyHeld, fallsThroughList(s.Body.List)},
			branch{elseHeld, elseFalls})
	case *ast.ForStmt:
		held = w.scanExpr(s.Cond, w.walkStmt(s.Init, held))
		w.walkStmt(s.Post, w.walkList(s.Body.List, held))
		return held
	case *ast.RangeStmt:
		if t := w.pkg.Info.Types[s.X].Type; t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				w.chanOp(s, held)
			}
		}
		held = w.scanExpr(s.X, held)
		w.walkList(s.Body.List, held)
		return held
	case *ast.SwitchStmt:
		return w.walkCases(s.Body, w.scanExpr(s.Tag, w.walkStmt(s.Init, held)))
	case *ast.TypeSwitchStmt:
		return w.walkCases(s.Body, w.walkStmt(s.Assign, w.walkStmt(s.Init, held)))
	case *ast.BlockStmt:
		return w.walkList(s.List, held)
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, held)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					held = w.scanExprs(held, vs.Values...)
				}
			}
		}
	}
	return held
}

// walkCases walks a switch's clauses: each case's expressions, then its
// body, all from the entry state.
func (w *heldWalker) walkCases(body *ast.BlockStmt, held bool) bool {
	branches := make([]branch, 0, len(body.List))
	for _, clause := range body.List {
		cc := clause.(*ast.CaseClause)
		after := w.walkList(cc.Body, w.scanExprs(held, cc.List...))
		branches = append(branches, branch{after, fallsThroughList(cc.Body)})
	}
	return mergeBranches(held, branches...)
}

// recvOperand strips a select case's top-level receive: the receive is
// the select's blocking operation, its channel operand an ordinary
// expression.
func recvOperand(e ast.Expr) ast.Expr {
	if u, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
		return u.X
	}
	return e
}

func (w *heldWalker) scanExprs(held bool, es ...ast.Expr) bool {
	for _, e := range es {
		held = w.scanExpr(e, held)
	}
	return held
}

// scanExpr visits every call and channel receive in the expression in
// evaluation order, updating the held state across lock/unlock calls on
// the tracked spelling and delivering events for everything evaluated
// while held.
func (w *heldWalker) scanExpr(e ast.Expr, held bool) bool {
	inspectSkippingFuncLits(e, func(n ast.Node) {
		switch x := n.(type) {
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				w.chanOp(x, held)
			}
		case *ast.CallExpr:
			class, spell, method := lockClass(w.pkg, x)
			if spell != w.spell {
				if held {
					w.emit(x, class, spell, method)
				}
				return
			}
			switch method {
			case "Lock", "RLock":
				if held {
					// Re-acquiring the tracked lock while held: the
					// self-deadlock event, delivered before the
					// acquisition is refreshed.
					w.emit(x, class, spell, method)
				}
				held = true
				w.class, w.acquiredAt, w.acquireMethod = class, x.Pos(), method
			case "Unlock", "RUnlock":
				held = held && w.deferred
			}
		}
	})
	return held
}

// chanOp delivers a channel operation evaluated while held.
func (w *heldWalker) chanOp(n ast.Node, held bool) {
	if held {
		w.emit(n, "", "", "")
	}
}

func (w *heldWalker) emit(n ast.Node, class, spell, method string) {
	w.onEvent(heldEvent{
		Node: n, Class: class, Spell: spell, Method: method,
		HeldClass: w.class, AcquiredAt: w.acquiredAt, AcquireMethod: w.acquireMethod,
	})
}

// deferUnlocks reports whether the defer releases the tracked lock,
// directly or inside a deferred closure.
func (w *heldWalker) deferUnlocks(d *ast.DeferStmt) bool {
	found := false
	ast.Inspect(d.Call, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			_, spell, method := lockClass(w.pkg, call)
			found = found || spell == w.spell && (method == "Unlock" || method == "RUnlock")
		}
		return !found
	})
	return found
}

type branch struct {
	held  bool
	falls bool
}

// mergeBranches computes the lock state after a conditional: if any
// falling-through branch released the lock, treat the merge as released
// (suppresses findings rather than inventing them); if no branch falls
// through, keep the entry state.
func mergeBranches(entry bool, branches ...branch) bool {
	merged := entry
	anyFalls := false
	for _, b := range branches {
		if b.falls {
			anyFalls = true
			merged = merged && b.held
		}
	}
	if !anyFalls {
		return entry
	}
	return merged
}

// fallsThrough reports whether control can flow past the statement.
func fallsThrough(st ast.Stmt) bool {
	switch s := st.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return false
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return false
			}
		}
		return true
	case *ast.BlockStmt:
		return fallsThroughList(s.List)
	case *ast.IfStmt:
		if s.Else == nil {
			return true
		}
		return fallsThroughList(s.Body.List) || fallsThrough(s.Else)
	default:
		return true
	}
}

func fallsThroughList(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return true
	}
	return fallsThrough(stmts[len(stmts)-1])
}
