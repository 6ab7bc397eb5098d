package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc guards the PR 4/6 zero-alloc wins: inside functions whose doc
// comment carries //mobweb:hot (the GF(2^8) kernels, CRC, packet
// marshal/parse, the frame-append and frame-write paths), it flags the
// allocation shapes that silently regress AllocsPerRun benchmarks:
//
//   - fmt calls (every verb formats into fresh heap memory)
//   - make() — per-call buffers belong in a reusable scratch or a
//     fixed-size stack array
//   - growing append: appending to anything that is not a caller-
//     provided buffer (the AppendMarshal idiom) or an explicit [:0]
//     reuse of existing capacity
//   - slice/map/pointer composite literals (&T{}, []T{...}); plain
//     value literals T{...} stay on the stack and are exempt
//   - interface boxing: a non-pointer-shaped concrete value passed to
//     an interface parameter heap-allocates the boxed copy
//   - string ↔ []byte conversions
//
// Anything inside a return statement is exempt: error-wrapping exits are
// cold by construction, and hot loops do not return per element. Cold
// branches that still trip the analyzer take a //lint:allow hotalloc.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc: "flag allocations (fmt, make, growing append, composite literals, interface boxing, " +
		"string conversions) inside //mobweb:hot functions, guarding the zero-alloc send path",
	Run: runHotAlloc,
}

// hotDirective is the //mobweb:hot directive name.
const hotDirective = "hot"

func runHotAlloc(pass *Pass) error {
	for _, pkg := range pass.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil && pass.Directive(fd.Body.Lbrace, hotDirective) {
					checkHotFunc(pass, pkg.Info, fd)
				}
			}
		}
	}
	return nil
}

func checkHotFunc(pass *Pass, info *types.Info, fd *ast.FuncDecl) {
	// Return statements bound the cold exits.
	var returns []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if r, ok := n.(*ast.ReturnStmt); ok {
			returns = append(returns, r)
		}
		return true
	})
	inReturn := func(pos token.Pos) bool {
		for _, r := range returns {
			if pos >= r.Pos() && pos < r.End() {
				return true
			}
		}
		return false
	}

	params := paramVars(info, fd)

	// Hot-ness covers nested literals too: a closure defined in a hot
	// function (a per-row worker) runs on the same path.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if inReturn(n.Pos()) {
			return false
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			checkHotCall(pass, info, fd, x, params)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					pass.Reportf(x.Pos(), "&T{} in //mobweb:hot %s heap-allocates; reuse a scratch value instead", fd.Name.Name)
				}
			}
		case *ast.CompositeLit:
			checkHotComposite(pass, info, fd, x)
		}
		return true
	})
}

// paramVars collects the function's parameters (incl. receiver and
// results): appending to any of them is the caller-owns-the-buffer
// idiom, not a hot-path allocation.
func paramVars(info *types.Info, fd *ast.FuncDecl) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	add := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if v, ok := info.Defs[name].(*types.Var); ok {
					out[v] = true
				}
			}
		}
	}
	add(fd.Recv)
	if fd.Type != nil {
		add(fd.Type.Params)
		add(fd.Type.Results)
	}
	return out
}

func checkHotCall(pass *Pass, info *types.Info, fd *ast.FuncDecl, call *ast.CallExpr, params map[*types.Var]bool) {
	// Builtins first: make and growing append.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, builtin := info.Uses[id].(*types.Builtin); builtin {
			switch id.Name {
			case "make":
				pass.Reportf(call.Pos(), "make in //mobweb:hot %s allocates per call; hoist to a reusable scratch buffer or a fixed-size stack array", fd.Name.Name)
			case "append":
				if len(call.Args) > 0 && !reusesCapacity(info, call.Args[0], params) {
					pass.Reportf(call.Pos(), "growing append in //mobweb:hot %s: target is neither a caller-provided buffer nor a [:0] reuse, so it reallocates as it grows", fd.Name.Name)
				}
			}
			return
		}
	}

	// Conversions: string([]byte) / []byte(string) copy.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to := tv.Type.Underlying()
		from := info.Types[call.Args[0]].Type
		if from != nil && isStringBytesConv(to, from.Underlying()) {
			pass.Reportf(call.Pos(), "string/[]byte conversion in //mobweb:hot %s copies the data; keep one representation on the hot path", fd.Name.Name)
		}
		return
	}

	fn := calleeFunc(info, call)
	if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		pass.Reportf(call.Pos(), "fmt.%s in //mobweb:hot %s allocates for every verb; format off the hot path", fn.Name(), fd.Name.Name)
		return
	}

	checkBoxing(pass, info, fd, call)
}

// checkBoxing flags concrete, non-pointer-shaped arguments passed to
// interface parameters: the conversion heap-allocates the boxed value.
// Pointer-shaped kinds (pointers, chans, maps, funcs) fit the interface
// data word directly and are exempt.
func checkBoxing(pass *Pass, info *types.Info, fd *ast.FuncDecl, call *ast.CallExpr) {
	tv, ok := info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	nparams := sig.Params().Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= nparams-1:
			if call.Ellipsis.IsValid() {
				continue // forwarding a slice, no per-element boxing
			}
			pt = sig.Params().At(nparams - 1).Type()
			if s, ok := pt.Underlying().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < nparams:
			pt = sig.Params().At(i).Type()
		default:
			continue
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		at := info.Types[arg].Type
		if at == nil || types.IsInterface(at) || isPointerShaped(at) || isUntypedNil(info, arg) {
			continue
		}
		pass.Reportf(arg.Pos(), "%s value boxed into interface parameter in //mobweb:hot %s (allocates); pass a pointer or keep the call off the hot path", at.String(), fd.Name.Name)
	}
}

func checkHotComposite(pass *Pass, info *types.Info, fd *ast.FuncDecl, lit *ast.CompositeLit) {
	t := info.Types[lit].Type
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice:
		pass.Reportf(lit.Pos(), "slice literal in //mobweb:hot %s allocates; hoist it to a package-level table or a stack array", fd.Name.Name)
	case *types.Map:
		pass.Reportf(lit.Pos(), "map literal in //mobweb:hot %s allocates; hoist it out of the hot path", fd.Name.Name)
	}
	// &T{...} is caught through the composite's address being taken.
}

// reusesCapacity reports whether the append target provably reuses
// existing storage: a (possibly sliced) function parameter, or an
// explicit x[:0] / x[:n] re-slice of anything.
func reusesCapacity(info *types.Info, target ast.Expr, params map[*types.Var]bool) bool {
	switch x := ast.Unparen(target).(type) {
	case *ast.SliceExpr:
		return true // append(buf[:0], ...) — the reuse idiom
	case *ast.Ident:
		if v, ok := info.Uses[x].(*types.Var); ok {
			return params[v]
		}
	}
	return false
}

// isStringBytesConv reports a conversion between string and []byte in
// either direction (both copy).
func isStringBytesConv(to, from types.Type) bool {
	return (isString(to) && isByteSlice(from)) || (isByteSlice(to) && isString(from))
}

func isString(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	return ok && isByte(s.Elem())
}

// isPointerShaped reports whether values of t fit an interface's data
// word without a heap copy.
func isPointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	}
	return false
}

func isUntypedNil(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.IsNil()
}
