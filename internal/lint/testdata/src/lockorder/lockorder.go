// Package lockorder is the fixture for the locks analyzer's lock order:
// an AB/BA cycle witnessed from both sides, an indirect cycle through a
// callee, a self-deadlock, and the disciplined patterns that must stay
// silent (consistent ordering, goroutine-spawned acquisitions).
package lockorder

import "sync"

var (
	muA sync.Mutex
	muB sync.Mutex
	muC sync.Mutex
	muD sync.Mutex
	muE sync.Mutex
	muF sync.Mutex
	muG sync.Mutex
)

// abThenBa and baThenAb acquire in opposite orders: the classic
// deadlock, reported at both witnessing edges.
func abThenBa() {
	muA.Lock()
	muB.Lock() // want `lock order cycle: lockorder\.muB acquired while lockorder\.muA is held .*cycle: lockorder\.muA → lockorder\.muB → lockorder\.muA`
	muB.Unlock()
	muA.Unlock()
}

func baThenAb() {
	muB.Lock()
	muA.Lock() // want `lock order cycle: lockorder\.muA acquired while lockorder\.muB is held`
	muA.Unlock()
	muB.Unlock()
}

// cThenD closes its half of the cycle indirectly: the call-graph closure
// knows lockD acquires muD.
func cThenD() {
	muC.Lock()
	lockD() // want `lock order cycle: lockorder\.muD acquired via call to lockorder\.lockD while lockorder\.muC is held`
	muC.Unlock()
}

func lockD() {
	muD.Lock()
	muD.Unlock()
}

func dThenC() {
	muD.Lock()
	muC.Lock() // want `lock order cycle: lockorder\.muC acquired while lockorder\.muD is held`
	muC.Unlock()
	muD.Unlock()
}

// reLock acquires a class it already holds through the same spelling: a
// certain self-deadlock, no cycle needed.
func reLock() {
	muG.Lock()
	muG.Lock() // want `muG locked again while already held \(self-deadlock`
	muG.Unlock()
	muG.Unlock()
}

// outerInner1/2 follow one consistent order on every path — the
// documented discipline. No cycle, no report.
func outerInner1() {
	muE.Lock()
	muF.Lock()
	muF.Unlock()
	muE.Unlock()
}

func outerInner2() {
	muE.Lock()
	defer muE.Unlock()
	muF.Lock()
	defer muF.Unlock()
}

// fThenSpawnE would close an E/F cycle if goroutine spawns counted as
// acquisitions of the spawner — they must not: the child's locks are
// taken on its own stack, after the parent may well have released.
func fThenSpawnE() {
	muF.Lock()
	go lockE()
	muF.Unlock()
}

func lockE() {
	muE.Lock()
	muE.Unlock()
}

// The planner/cache discipline: the owner's mutex strictly outside the
// generic cache's, the cache never calls back. drop breaks it, and is only
// caught if a call on cache[string] resolves to the generic declaration.
type cache[K comparable] struct{ mu sync.Mutex }
type owner struct{ mu sync.Mutex }

var plans cache[string]

func (c *cache[K]) drop(o *owner) { c.mu.Lock(); o.touch(); c.mu.Unlock() } // want `lock order cycle: lockorder\.owner\.mu acquired via call to .*touch while lockorder\.cache\.mu is held`
func (o *owner) touch()           { o.mu.Lock(); o.mu.Unlock() }
func (o *owner) retire()          { o.mu.Lock(); plans.drop(o); o.mu.Unlock() } // want `lock order cycle: lockorder\.cache\.mu acquired via call to .*drop while lockorder\.owner\.mu is held`

// cThenDInSelect closes C→D from a select case: the operands of a comm
// clause evaluate while muC is held.
func cThenDInSelect(ch chan int) {
	muC.Lock()
	select {
	case ch <- lockDValue(): // want `lock order cycle: lockorder\.muD acquired via call to lockorder\.lockDValue while lockorder\.muC is held`
	default:
	}
	muC.Unlock()
}

func lockDValue() int {
	muD.Lock()
	defer muD.Unlock()
	return 1
}
