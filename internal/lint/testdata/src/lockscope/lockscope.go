// Fixture for the locks held-across shape: critical sections spanning
// channel operations, network I/O, plan builds, waits and sleeps.
package lockscope

import (
	"net"
	"sync"
	"time"

	"mobweb/internal/core"
)

type server struct {
	mu    sync.Mutex
	conns map[net.Conn]bool
	ch    chan int
	plans map[string]*core.Plan
}

// The Server.Close bug this analyzer caught in the real tree: closing
// connections while holding the tracking mutex.
func (s *server) closeAllBad() {
	s.mu.Lock()
	for c := range s.conns {
		c.Close() // want "held across network I/O"
	}
	s.mu.Unlock()
}

func (s *server) sendBad(v int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ch <- v // want "held across a channel send"
}

func (s *server) recvBad() int {
	s.mu.Lock()
	v := <-s.ch // want "held across a channel receive"
	s.mu.Unlock()
	return v
}

func (s *server) buildBad() {
	s.mu.Lock()
	p, _ := core.NewPlanWithScores(nil, nil, core.Config{}) // want "held across a plan build"
	s.plans["x"] = p
	s.mu.Unlock()
}

func (s *server) sleepBad() {
	s.mu.Lock()
	time.Sleep(time.Millisecond) // want "held across time.Sleep"
	s.mu.Unlock()
}

func (s *server) waitBad(wg *sync.WaitGroup) {
	s.mu.Lock()
	defer s.mu.Unlock()
	wg.Wait() // want `held across sync\.WaitGroup\.Wait`
}

func (s *server) selectBad() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select { // want "held across a select"
	case v := <-s.ch:
		_ = v
	default:
	}
}

func (s *server) rangeBad() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for v := range s.ch { // want "held across a channel range"
		_ = v
	}
}

// The planner's discipline: snapshot under the lock, build after,
// re-lock to publish. Nothing here may be flagged.
func (s *server) buildGood() {
	s.mu.Lock()
	_, cached := s.plans["x"]
	s.mu.Unlock()
	if cached {
		return
	}
	p, _ := core.NewPlanWithScores(nil, nil, core.Config{})
	s.mu.Lock()
	s.plans["x"] = p
	s.mu.Unlock()
}

// An unlock on an early-return branch does not release the fall-through
// path: line A is clean, line B is still under the lock.
func (s *server) earlyReturnStillLocked(done bool) {
	s.mu.Lock()
	if done {
		s.mu.Unlock()
		s.ch <- 1 // line A: unlocked on this path
		return
	}
	s.ch <- 2 // want "held across a channel send"
	s.mu.Unlock()
}

// A goroutine body does not run under the spawner's lock.
func (s *server) goroutineGood() {
	s.mu.Lock()
	go func() {
		s.ch <- 1
	}()
	s.mu.Unlock()
}

// Channel ops after every path released the lock are fine.
func (s *server) unlockThenSendGood(v int) {
	s.mu.Lock()
	s.plans = nil
	s.mu.Unlock()
	s.ch <- v
}

// A for loop's post statement and a switch's case expressions run under
// the lock too.
func (s *server) postAndCaseBad(c net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for err := error(nil); err == nil; err = c.SetDeadline(time.Time{}) { // want `held across network I/O \(net\.SetDeadline\)`
	}
	switch {
	case c.LocalAddr() == nil: // want `held across network I/O \(net\.LocalAddr\)`
	}
}
