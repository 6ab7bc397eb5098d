// Package lockdedup reproduces the overlap between the locks analyzer's
// two shapes: a critical section that both sleeps (a held-across-blocker
// finding) and closes a lock-order cycle. The cycle is the root cause;
// the analyzer must keep the cycle report and drop the held-across
// symptom inside the cycle's critical section. The held-across finding
// outside any cycle must survive.
package lockdedup

import (
	"sync"
	"time"
)

var (
	muA    sync.Mutex
	muB    sync.Mutex
	muLone sync.Mutex
)

// abWithSleep sleeps inside the A→B half of the cycle: the held-across
// finding on the Sleep line is subsumed by the cycle report.
func abWithSleep() {
	muA.Lock()
	time.Sleep(time.Millisecond)
	muB.Lock()
	muB.Unlock()
	muA.Unlock()
}

func ba() {
	muB.Lock()
	muA.Lock()
	muA.Unlock()
	muB.Unlock()
}

// sleepLone holds a cycle-free mutex across a sleep: a plain held-across
// finding that dedup must NOT eat.
func sleepLone() {
	muLone.Lock()
	time.Sleep(time.Millisecond)
	muLone.Unlock()
}
