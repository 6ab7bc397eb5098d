package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// NondetPackages lists the import paths whose outputs must be
// bit-reproducible: they feed the golden chaos trace, the seeded
// simulator figures, and the frame-cache/plan-cache keys. Wall-clock
// reads and unseeded randomness inside them make golden tests flaky and
// cache keys unstable. Overridable in tests (linttest.Override).
var NondetPackages = []string{
	"mobweb/internal/channel",
	"mobweb/internal/core",
	"mobweb/internal/crc",
	"mobweb/internal/erasure",
	"mobweb/internal/ewma",
	"mobweb/internal/fountain",
	"mobweb/internal/framecache",
	"mobweb/internal/gf256",
	"mobweb/internal/nbinom",
	"mobweb/internal/obs",
	"mobweb/internal/packet",
	"mobweb/internal/planner",
	"mobweb/internal/prefetch",
	"mobweb/internal/profile",
	"mobweb/internal/shard",
	"mobweb/internal/sim",
	"mobweb/internal/store",
	"mobweb/internal/trace",
	"mobweb/internal/transport",
}

// NonDet flags determinism hazards in the packages above:
//
//   - wall-clock reads (time.Now/Since/Until, timers/tickers)
//   - unseeded randomness: math/rand's package-level functions, which
//     draw from the global source (rand.New/NewSource and methods on an
//     explicit *rand.Rand are the seeded, reproducible idiom)
//   - calls whose call-graph closure reaches either of the above in
//     code outside the deterministic set (so a helper package can't
//     smuggle a clock in)
//   - map iterations whose order leaks into output: appending to an
//     outer slice that is never sorted afterwards, or writing directly
//     to an ordered sink (fmt.Fprint*, Write*, print)
//
// Genuinely wall-clock lines — cook-time stats, I/O deadlines — carry a
// //mobweb:nondet-ok directive (line or function form, see the comment
// index in program.go), which also stops closure propagation through
// them.
var NonDet = &Analyzer{
	Name: "nondet",
	Doc: "flag time.Now, unseeded math/rand and map-iteration-order-dependent output in the " +
		"deterministic packages (golden traces, seeded chaos, cache keys); //mobweb:nondet-ok opts out",
	Run: runNonDet,
}

// nondetOK is the directive name shared with the fixture docs.
const nondetOK = "nondet-ok"

func runNonDet(pass *Pass) error {
	// Phase 1: per-function direct sources, across every loaded package,
	// with annotated sites excluded so directives cut propagation too.
	direct := make(map[string]map[string]bool)
	for name, node := range pass.Graph.Nodes {
		inspectSkippingFuncLits(node.Body, func(n ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			desc := nondetSource(node.Pkg.Info, call)
			if desc == "" || pass.Directive(call.Pos(), nondetOK) {
				return
			}
			if direct[name] == nil {
				direct[name] = make(map[string]bool)
			}
			direct[name][desc] = true
		})
	}
	reaches := reachableClosure(pass.Graph, direct)

	// Phase 2: report inside the deterministic packages.
	for _, name := range pass.Graph.SortedNames() {
		node := pass.Graph.Nodes[name]
		if !slices.Contains(NondetPackages, node.Pkg.PkgPath) {
			continue
		}
		inspectSkippingFuncLits(node.Body, func(n ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			if pass.Directive(call.Pos(), nondetOK) {
				return
			}
			if desc := nondetSource(node.Pkg.Info, call); desc != "" {
				pass.Reportf(call.Pos(),
					"%s in deterministic package %s (feeds golden traces / cache keys); seed it or annotate //mobweb:nondet-ok",
					desc, node.Pkg.Types.Name())
				return
			}
			// Indirect: a call that reaches a source through code outside
			// the deterministic set. Callees inside the set report their
			// own sites; repeating them at every caller is noise.
			callee := calleeFullName(node.Pkg.Info, call)
			calleeNode := pass.Graph.Nodes[callee]
			if callee == "" || calleeNode == nil || slices.Contains(NondetPackages, calleeNode.Pkg.PkgPath) {
				return
			}
			if srcs := sortedKeys(reaches[callee]); len(srcs) > 0 {
				pass.Reportf(call.Pos(),
					"call to %s may reach %s from deterministic package %s; seed/annotate at the source or mark this line //mobweb:nondet-ok",
					shortFunc(callee), strings.Join(srcs, ", "), node.Pkg.Types.Name())
			}
		})
		checkMapOrder(pass, node)
	}
	return nil
}

// nondetSource describes the call when it is itself a determinism
// hazard, or "".
func nondetSource(info *types.Info, call *ast.CallExpr) string {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	switch fn.Pkg().Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until", "After", "AfterFunc", "Tick", "NewTimer", "NewTicker":
			return "wall-clock read time." + fn.Name()
		}
	case "math/rand", "math/rand/v2":
		if fn.Type().(*types.Signature).Recv() != nil {
			// Methods on an explicit *rand.Rand are seeded by whoever
			// constructed it; rand.New(rand.NewSource(seed)) is the
			// idiom the repo's chaos/sim code uses.
			return ""
		}
		switch fn.Name() {
		case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
			return ""
		}
		return "unseeded global randomness rand." + fn.Name()
	}
	return ""
}

// checkMapOrder flags map ranges whose iteration order leaks into
// ordered output: an append to a slice declared outside the loop with no
// sort call on it later in the function, or a direct write to an ordered
// sink inside the loop. Building other maps, summing, or assigning by
// computed index are all order-insensitive and stay silent.
func checkMapOrder(pass *Pass, node *FuncNode) {
	body := node.Body
	info := node.Pkg.Info
	inspectSkippingFuncLits(body, func(n ast.Node) {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return
		}
		t := info.Types[rng.X].Type
		if t == nil {
			return
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return
		}
		if pass.Directive(rng.Pos(), nondetOK) {
			return
		}
		// Ordered sinks inside the loop body (one report per range).
		sinkReported := false
		inspectSkippingFuncLits(rng.Body, func(n ast.Node) {
			if sinkReported {
				return
			}
			if call, ok := n.(*ast.CallExpr); ok {
				if sink := orderedSink(info, call); sink != "" {
					sinkReported = true
					pass.Reportf(rng.Pos(),
						"map iteration order reaches %s; iterate sorted keys instead", sink)
				}
			}
		})
		// Appends into slices that are never sorted afterwards.
		for _, target := range appendTargets(info, rng) {
			if sortedLater(info, body, target, rng.End()) {
				continue
			}
			pass.Reportf(rng.Pos(),
				"map iteration order reaches %s via append and %s is never sorted afterwards; sort it or iterate sorted keys",
				target.Name(), target.Name())
		}
	})
}

// orderedSink describes a call that emits in sequence order, or "".
// fmt.Sprint* is not a sink — a formatted string used as a map key or
// sorted later is fine; the append/sort rule covers the slice case.
func orderedSink(info *types.Info, call *ast.CallExpr) string {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && (id.Name == "print" || id.Name == "println") {
		if _, builtin := info.Uses[id].(*types.Builtin); builtin {
			return "the " + id.Name + " builtin"
		}
	}
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	if fn.Pkg().Path() == "fmt" && (strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint")) {
		return "fmt." + fn.Name()
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		switch fn.Name() {
		case "Write", "WriteString", "WriteByte", "WriteRune":
			recv := namedOrPointee(sig.Recv().Type())
			if recv != nil && recv.Obj().Pkg() != nil {
				switch recv.Obj().Pkg().Path() + "." + recv.Obj().Name() {
				case "strings.Builder", "bytes.Buffer", "bufio.Writer":
					return "an ordered writer (" + recv.Obj().Name() + "." + fn.Name() + ")"
				}
			}
		}
	}
	return ""
}

// appendTargets returns the outer-declared slice variables the loop body
// appends to, in source order, deduplicated.
func appendTargets(info *types.Info, rng *ast.RangeStmt) []*types.Var {
	seen := make(map[*types.Var]bool)
	var out []*types.Var
	inspectSkippingFuncLits(rng.Body, func(n ast.Node) {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || i >= len(as.Lhs) {
				continue
			}
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok || id.Name != "append" {
				continue
			}
			if _, builtin := info.Uses[id].(*types.Builtin); !builtin {
				continue
			}
			lhs, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident)
			if !ok {
				continue
			}
			v, ok := info.Uses[lhs].(*types.Var)
			if !ok {
				// := inside the loop defines a fresh slice per iteration;
				// order cannot leak out through it.
				continue
			}
			if v.Pos() >= rng.Pos() && v.Pos() <= rng.End() {
				continue
			}
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	})
	return out
}

// sortedLater reports whether a sort-package call mentioning the
// variable appears after pos in the function body — the planner
// cacheKey idiom: collect in map order, then sort.Strings(parts).
func sortedLater(info *types.Info, body *ast.BlockStmt, v *types.Var, pos token.Pos) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sort" && fn.Pkg().Path() != "slices" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(a ast.Node) bool {
				if id, ok := a.(*ast.Ident); ok && info.Uses[id] == v {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}
