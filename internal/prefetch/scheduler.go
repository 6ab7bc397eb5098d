package prefetch

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// This file is the speculative side of the package: a priority gate
// that subordinates prefetch traffic to foreground fetches, and a
// scheduler that spends idle link time on the profile's top-k predicted
// documents through any transport-shaped prefetch function. Plan (the
// budget split) is the policy; the scheduler is the loop that runs it.
// Cross-window progress is not kept here: it lives in the client's
// packet store, and callers report it in Candidate.HavePackets.

// ErrBusy is returned by a scheduler window that could not start
// because the link is in foreground use. It is a yield, not a failure.
var ErrBusy = errors.New("prefetch: link busy with foreground traffic")

// Gate is the foreground-priority gate: prefetch windows run only while
// the link is idle, and the moment a foreground fetch starts every open
// window's context is canceled — speculative traffic must never add a
// round-trip to a page the user actually asked for. It is safe for
// concurrent use; the zero value is ready (and idle).
type Gate struct {
	mu      sync.Mutex
	busy    int
	windows map[*gateWindow]struct{}
}

// gateWindow is one registered prefetch window's cancel hook.
type gateWindow struct{ cancel context.CancelFunc }

// ForegroundStart marks the link busy and cancels every open prefetch
// window. Calls nest: the link stays busy until every start has its
// matching ForegroundEnd.
func (g *Gate) ForegroundStart() {
	g.mu.Lock()
	g.busy++
	for w := range g.windows { //mobweb:nondet-ok cancel fan-out; order is immaterial
		w.cancel()
	}
	g.windows = nil
	g.mu.Unlock()
}

// ForegroundEnd marks one foreground fetch finished.
func (g *Gate) ForegroundEnd() {
	g.mu.Lock()
	if g.busy > 0 {
		g.busy--
	}
	g.mu.Unlock()
}

// Idle reports whether the link has no foreground fetch in flight.
func (g *Gate) Idle() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.busy == 0
}

// WindowContext derives a prefetch-window context that is canceled the
// moment a foreground fetch starts; the release function must be called
// when the window ends. ok=false means the link is already busy and no
// window may open.
func (g *Gate) WindowContext(parent context.Context) (ctx context.Context, release func(), ok bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.busy > 0 {
		return nil, nil, false
	}
	ctx, cancel := context.WithCancel(parent)
	w := &gateWindow{cancel: cancel}
	if g.windows == nil {
		g.windows = make(map[*gateWindow]struct{})
	}
	g.windows[w] = struct{}{}
	return ctx, func() {
		g.mu.Lock()
		delete(g.windows, w)
		g.mu.Unlock()
		cancel()
	}, true
}

// PrefetchFunc pulls up to budgetPackets frames of one document and
// reports how many actually crossed the wire — transport.Client's
// Prefetch shaped into a dependency the scheduler can hold without
// importing the transport. received must be valid even when err is
// non-nil: a window canceled mid-generation still spent that air time,
// and the frames it delivered are already stored downstream.
type PrefetchFunc func(ctx context.Context, doc string, budgetPackets int) (received int, err error)

// Scheduler spends idle-link budgets on predicted documents. It is a
// single-session loop (not safe for concurrent use); the Gate it shares
// with the foreground path is.
type Scheduler struct {
	// Gate subordinates windows to foreground traffic; nil means no
	// gating (windows always run).
	Gate *Gate
	// Fetch is the transport dependency. Required.
	Fetch PrefetchFunc
}

// WindowResult accounts one scheduler window.
type WindowResult struct {
	// Received counts frames that crossed the wire during the window,
	// summed across candidates — including partial allocations that
	// were interrupted mid-stream.
	Received int
	// Completed counts candidates whose allocation was fully served.
	Completed int
	// Yielded reports that the window stopped early because foreground
	// traffic claimed the link (gate refusal or mid-stream cancel).
	Yielded bool
}

// RunWindow plans the budget across candidates (expected-utility
// greedy, net of each candidate's HavePackets) and serves the
// allocations in order until the budget is spent or the gate yields the
// link. Every received count is added to the result before the error is
// examined, so a window canceled mid-generation still accounts for the
// air time it spent. Cancellation (the gate's or the caller's) is a
// yield, not an error.
func (s *Scheduler) RunWindow(ctx context.Context, cands []Candidate, budgetPackets int) (WindowResult, error) {
	var res WindowResult
	if s.Fetch == nil {
		return res, fmt.Errorf("prefetch: scheduler has no fetch function")
	}
	allocs, err := Plan(cands, budgetPackets)
	if err != nil {
		return res, err
	}
	wctx := ctx
	release := func() {}
	if s.Gate != nil {
		var ok bool
		wctx, release, ok = s.Gate.WindowContext(ctx)
		if !ok {
			res.Yielded = true
			return res, ErrBusy
		}
	}
	defer release()
	for _, a := range allocs {
		n, err := s.Fetch(wctx, a.Name, a.Packets)
		res.Received += n
		if err != nil {
			if wctx.Err() != nil {
				res.Yielded = true
				return res, nil
			}
			return res, fmt.Errorf("prefetch: %s: %w", a.Name, err)
		}
		res.Completed++
		if wctx.Err() != nil {
			res.Yielded = true
			return res, nil
		}
	}
	return res, nil
}
