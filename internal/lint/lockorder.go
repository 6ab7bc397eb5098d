package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// LockOrder builds the global mutex acquisition-order graph across every
// loaded package and reports cycles as potential deadlocks.
//
// Lock classes are instance-insensitive ("planner.Planner.mu" covers
// every Planner, "framecache.Cache.mu" every instantiation of the
// generic cache): the discipline the repo documents — planner.mu is
// strictly outside the cache mutex, the cache never calls back into
// the planner — is exactly a property of classes, not instances.
// For each function and each class A it acquires, an intraprocedural
// held-walk (dataflow.go) finds what happens while A is held:
//
//   - a direct Lock of class B       → edge A→B
//   - a call to g where the call-graph closure says g may acquire B
//     (goroutine spawns excluded: the child's locks are not ours) → A→B
//   - a Lock of A itself through the same receiver spelling → immediate
//     self-deadlock report
//
// Strongly connected components of the edge graph with a cycle are
// reported once per witnessing edge. Single-function lockscope findings
// that fall inside a cyclic critical section are suppressed — the cycle
// report is the root cause, the held-across-blocker finding a symptom
// of the same oversized critical section.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc: "build the cross-package mutex acquisition-order graph and report cycles as potential " +
		"deadlocks (instance-insensitive classes; call-graph closure for indirect acquisitions)",
	RunProgram: runLockOrder,
}

// lockEdge is one "B acquired while A held" observation.
type lockEdge struct {
	from, to   string
	pos        token.Pos // the acquisition (or call) while from is held
	acquiredAt token.Pos // where from was acquired
	pkg        *Package
	viaCall    string // callee FullName when the edge is indirect
}

func runLockOrder(pass *ProgramPass) error {
	prog := pass.Program
	g := prog.Graph

	// Direct acquisitions per function, then the may-acquire closure.
	direct := make(map[string]map[string]bool)
	for name, node := range g.Nodes {
		body := node.Body()
		if body == nil {
			continue
		}
		for _, class := range classesAcquired(node.Pkg, body) {
			if direct[name] == nil {
				direct[name] = make(map[string]bool)
			}
			direct[name][class] = true
		}
	}
	mayAcquire := reachableClosure(g, direct, true)

	var edges []lockEdge
	for _, name := range g.SortedNames() {
		node := g.Nodes[name]
		body := node.Body()
		if body == nil {
			continue
		}
		for _, classA := range classesAcquired(node.Pkg, body) {
			walkHeld(node.Pkg, body, classA, func(ev heldEvent) {
				switch {
				case ev.Class == classA:
					// Re-acquisition of the held class. Only an exclusive
					// Lock through the identical receiver spelling is a
					// certain self-deadlock; different spellings may be
					// different instances.
					if ev.Method == "Lock" && ev.AcquireMethod == "Lock" && ev.Spell == ev.AcquireSpell {
						pass.Reportf(ev.Call.Pos(),
							"%s locked again while already held (self-deadlock; first acquired at %s)",
							ev.Spell, prog.Fset.Position(ev.AcquiredAt))
					}
				case ev.Class != "":
					if ev.Method == "Lock" || ev.Method == "RLock" {
						edges = append(edges, lockEdge{
							from: classA, to: ev.Class,
							pos: ev.Call.Pos(), acquiredAt: ev.AcquiredAt, pkg: node.Pkg,
						})
					}
				default:
					callee := calleeFullName(node.Pkg.Info, ev.Call)
					if callee == "" {
						return
					}
					for _, classB := range sortedKeys(mayAcquire[callee]) {
						if classB == classA {
							continue
						}
						edges = append(edges, lockEdge{
							from: classA, to: classB,
							pos: ev.Call.Pos(), acquiredAt: ev.AcquiredAt, pkg: node.Pkg,
							viaCall: callee,
						})
					}
				}
			})
		}
	}

	// Cycle detection over the class graph.
	succ := make(map[string]map[string]bool)
	for _, e := range edges {
		if succ[e.from] == nil {
			succ[e.from] = make(map[string]bool)
		}
		succ[e.from][e.to] = true
	}
	cyclic := cyclicClasses(succ)

	for _, e := range edges {
		scc, ok := cyclic[e.from]
		if !ok || scc != cyclic[e.to] {
			continue
		}
		cycle := sccMembers(cyclic, scc)
		via := ""
		if e.viaCall != "" {
			via = fmt.Sprintf(" via call to %s", shortFunc(e.viaCall))
		}
		pass.Reportf(e.pos,
			"lock order cycle: %s acquired%s while %s is held (acquired at %s); cycle: %s",
			shortClass(e.to), via, shortClass(e.from),
			prog.Fset.Position(e.acquiredAt), strings.Join(cycle, " → "))

		// The whole critical section from acquisition to this edge is one
		// reported defect; drop lockscope's symptom findings inside it.
		from := prog.Fset.Position(e.acquiredAt)
		to := prog.Fset.Position(e.pos)
		if from.Filename == to.Filename {
			prog.Suppress("lockscope", from.Filename, from.Line, to.Line, "lockorder")
		}
	}
	return nil
}

// cyclicClasses returns, for every class on a cycle, its SCC id.
// Classes not on any cycle are absent. Tarjan's algorithm, iterative
// input ordering for determinism; a single-node SCC counts only with a
// self-loop.
func cyclicClasses(succ map[string]map[string]bool) map[string]int {
	var order []string
	seen := make(map[string]bool)
	for _, from := range sortedKeys(succ) {
		if !seen[from] {
			seen[from] = true
			order = append(order, from)
		}
		for _, to := range sortedKeys(succ[from]) {
			if !seen[to] {
				seen[to] = true
				order = append(order, to)
			}
		}
	}

	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	next := 0
	sccOf := make(map[string]int)
	sccSize := make(map[int]int)
	sccID := 0

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range sortedKeys(succ[v]) {
			if _, ok := index[w]; !ok {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] {
				if index[w] < low[v] {
					low[v] = index[w]
				}
			}
		}
		if low[v] == index[v] {
			id := sccID
			sccID++
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				sccOf[w] = id
				sccSize[id]++
				if w == v {
					break
				}
			}
		}
	}
	for _, v := range order {
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

// shortFunc trims package paths inside a FullName:
// "(*mobweb/internal/framecache.Cache[K, V]).Invalidate" →
// "(*framecache.Cache[K, V]).Invalidate".
func shortFunc(full string) string {
	if i := strings.LastIndex(full, "/"); i >= 0 {
		prefix := full[:i]
		if j := strings.LastIndexAny(prefix, "(* "); j >= 0 {
			return prefix[:j+1] + full[i+1:]
		}
		return full[i+1:]
	}
	return full
}

// sortedKeys returns the map's keys sorted, nil-safe.
func sortedKeys[V any](m map[string]V) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
