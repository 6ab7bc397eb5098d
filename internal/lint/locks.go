package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// lockBlockers are calls that block (or can block) for unbounded time;
// holding a mutex across one is the singleflight-deadlock shape the
// planner avoids by dropping p.mu around core.NewPlan. Method names use
// types.Func.FullName form.
var lockBlockers = map[string]string{
	"mobweb/internal/core.NewPlan":                        "a plan build (ranking + packetization)",
	"mobweb/internal/core.NewPlanWithScores":              "a plan build (ranking + packetization)",
	"(*mobweb/internal/planner.Planner).Resolve":          "a plan resolution (may build)",
	"(*sync.WaitGroup).Wait":                              "sync.WaitGroup.Wait",
	"time.Sleep":                                          "time.Sleep",
	"(*mobweb/internal/transport.Client).Fetch":           "a network fetch",
	"(*mobweb/internal/transport.Client).FetchContext":    "a network fetch",
	"(*mobweb/internal/transport.Client).Prefetch":        "a network prefetch",
	"(*mobweb/internal/transport.Client).PrefetchContext": "a network prefetch",
	"(*mobweb/internal/transport.Client).Search":          "a network search",
	"(*mobweb/internal/transport.Client).SearchContext":   "a network search",
}

// Locks checks mutex discipline with one held-lock walk (dataflow.go)
// per call-graph node and receiver spelling locked in it. Two shapes are
// reported:
//
//   - held across a blocker: a channel send, receive, select or range,
//     any net-package call, a plan build, a network fetch, a WaitGroup
//     wait or a sleep while any mutex — locals included — is held.
//   - a lock-order cycle in the global acquisition-order graph, or a
//     self-deadlock. Lock classes are instance-insensitive
//     ("planner.Planner.mu" covers every Planner, "framecache.Cache.mu"
//     every instantiation of the generic cache): the discipline the repo
//     documents — planner.mu strictly outside the cache mutex, the cache
//     never calls back — is a property of classes, not instances. While
//     class A is held, a Lock of class B, or a call whose call-graph
//     closure may acquire B (goroutine spawns excluded: the child's locks
//     are not ours), is an edge A→B; every edge inside a strongly
//     connected component is reported. Re-locking A through the same
//     receiver spelling is a certain self-deadlock.
//
// A held-across finding inside the critical section of a reported cycle
// edge is a symptom of the same oversized section, and is dropped: one
// defect, one report.
var Locks = &Analyzer{
	Name: "locks",
	Doc: "flag mutexes held across channel ops, network I/O, plan builds, WaitGroup waits or sleeps, " +
		"and cycles in the cross-package mutex acquisition-order graph (potential deadlocks)",
	Run: runLocks,
}

// lockEdge is one "to acquired while from held" observation.
type lockEdge struct {
	from, to   string
	pos        token.Pos // the acquisition (or call) while from is held
	acquiredAt token.Pos // where from was acquired
	viaCall    string    // callee FullName when the edge is indirect
}

// heldAcross is one held-across-blocker finding, reported once the
// cycles are known.
type heldAcross struct {
	pos         token.Pos
	spell, what string
}

func runLocks(pass *Pass) error {
	g := pass.Graph

	// The spellings each function locks directly, the classes among them,
	// then the may-acquire closure.
	spells := make(map[string][]string)
	direct := make(map[string]map[string]bool)
	for name, node := range g.Nodes {
		inspectSkippingFuncLits(node.Body, func(n ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			class, spell, method := lockClass(node.Pkg, call)
			if method != "Lock" && method != "RLock" {
				return
			}
			if !slices.Contains(spells[name], spell) {
				spells[name] = append(spells[name], spell)
			}
			if class != "" {
				if direct[name] == nil {
					direct[name] = make(map[string]bool)
				}
				direct[name][class] = true
			}
		})
	}
	mayAcquire := reachableClosure(g, direct)

	var edges []lockEdge
	seen := make(map[lockEdge]bool)
	addEdge := func(e lockEdge) {
		if key := (lockEdge{from: e.from, to: e.to, pos: e.pos}); !seen[key] {
			seen[key] = true
			edges = append(edges, e)
		}
	}
	var held []heldAcross
	for _, name := range g.SortedNames() {
		node := g.Nodes[name]
		for _, spell := range spells[name] {
			walkHeld(node.Pkg, node.Body, spell, func(ev heldEvent) {
				if what := blocker(node.Pkg.Info, ev.Node); what != "" {
					held = append(held, heldAcross{ev.Node.Pos(), spell, what})
				}
				call, ok := ev.Node.(*ast.CallExpr)
				if !ok || ev.HeldClass == "" {
					return
				}
				edge := lockEdge{from: ev.HeldClass, pos: call.Pos(), acquiredAt: ev.AcquiredAt}
				switch {
				case ev.Class == ev.HeldClass:
					// Only an exclusive Lock through the identical spelling
					// is a certain self-deadlock; different spellings may
					// be different instances.
					if ev.Spell == spell && ev.Method == "Lock" && ev.AcquireMethod == "Lock" {
						pass.Reportf(call.Pos(),
							"%s locked again while already held (self-deadlock; first acquired at %s)",
							spell, pass.Fset.Position(ev.AcquiredAt))
					}
				case ev.Class != "":
					if ev.Method == "Lock" || ev.Method == "RLock" {
						edge.to = ev.Class
						addEdge(edge)
					}
				default:
					edge.viaCall = calleeFullName(node.Pkg.Info, call)
					for _, to := range sortedKeys(mayAcquire[edge.viaCall]) {
						if to != edge.from {
							edge.to = to
							addEdge(edge)
						}
					}
				}
			})
		}
	}

	succ := make(map[string]map[string]bool)
	for _, e := range edges {
		if succ[e.from] == nil {
			succ[e.from] = make(map[string]bool)
		}
		succ[e.from][e.to] = true
	}
	cyclic := cyclicClasses(succ)

	// inCycle reports whether a line lies in the critical section, from
	// acquisition to edge, of a reported cycle edge.
	var sections []lockEdge
	inCycle := func(p token.Position) bool {
		return slices.ContainsFunc(sections, func(e lockEdge) bool {
			from, to := pass.Fset.Position(e.acquiredAt), pass.Fset.Position(e.pos)
			return from.Filename == p.Filename && to.Filename == p.Filename &&
				min(from.Line, to.Line) <= p.Line && p.Line <= max(from.Line, to.Line)
		})
	}
	for _, e := range edges {
		scc, ok := cyclic[e.from]
		if !ok || scc != cyclic[e.to] {
			continue
		}
		via := ""
		if e.viaCall != "" {
			via = fmt.Sprintf(" via call to %s", shortFunc(e.viaCall))
		}
		pass.Reportf(e.pos,
			"lock order cycle: %s acquired%s while %s is held (acquired at %s); cycle: %s",
			shortClass(e.to), via, shortClass(e.from),
			pass.Fset.Position(e.acquiredAt), strings.Join(sccMembers(cyclic, scc), " → "))
		sections = append(sections, e)
	}
	for _, h := range held {
		if !inCycle(pass.Fset.Position(h.pos)) {
			pass.Reportf(h.pos, "mutex %s held across %s; release the lock first (planner-style: drop the lock around builds and I/O)", h.spell, h.what)
		}
	}
	return nil
}

// blocker describes a held-lock event that blocks for unbounded time, or
// "".
func blocker(info *types.Info, n ast.Node) string {
	switch n := n.(type) {
	case *ast.SendStmt:
		return "a channel send"
	case *ast.UnaryExpr:
		return "a channel receive"
	case *ast.SelectStmt:
		return "a select"
	case *ast.RangeStmt:
		return "a channel range"
	case *ast.CallExpr:
		fn := calleeFunc(info, n)
		if fn == nil {
			return ""
		}
		if desc, ok := lockBlockers[fn.FullName()]; ok {
			return desc
		}
		// Any call into package net: Conn/Listener methods (Accept, Read,
		// Write, Close, ...) and dial functions all touch the network.
		if fn.Pkg() != nil && fn.Pkg().Path() == "net" {
			return "network I/O (net." + fn.Name() + ")"
		}
	}
	return ""
}

// cyclicClasses returns, for every class on a cycle, its SCC id.
// Classes not on any cycle are absent. Tarjan's algorithm over sorted
// roots and successors for determinism; a single-node SCC counts only
// with a self-loop.
func cyclicClasses(succ map[string]map[string]bool) map[string]int {
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	sccOf := make(map[string]int)
	sccSize := make(map[int]int)
	sccID := 0

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = len(index)
		low[v] = index[v]
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range sortedKeys(succ[v]) {
			if _, ok := index[w]; !ok {
				strongconnect(w)
				low[v] = min(low[v], low[w])
			} else if onStack[w] {
				low[v] = min(low[v], index[w])
			}
		}
		if low[v] == index[v] {
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				sccOf[w] = sccID
				sccSize[sccID]++
				if w == v {
					break
				}
			}
			sccID++
		}
	}
	for _, v := range sortedKeys(succ) {
		if _, ok := index[v]; !ok {
			strongconnect(v)
		}
	}

	out := make(map[string]int)
	for v, id := range sccOf {
		if sccSize[id] > 1 || succ[v][v] {
			out[v] = id
		}
	}
	return out
}

// sccMembers lists the short names of the SCC's classes as a cycle
// description "a → b → a".
func sccMembers(cyclic map[string]int, id int) []string {
	var members []string
	for class, scc := range cyclic {
		if scc == id {
			members = append(members, shortClass(class))
		}
	}
	sort.Strings(members)
	return append(members, members[0])
}

// shortClass trims the module path prefix: "mobweb/internal/planner.
// Planner.mu" → "planner.Planner.mu".
func shortClass(class string) string {
	if i := strings.LastIndex(class, "/"); i >= 0 {
		return class[i+1:]
	}
	return class
}
