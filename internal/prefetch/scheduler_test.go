package prefetch

import (
	"context"
	"errors"
	"testing"
)

func schedCands() []Candidate {
	return []Candidate{
		{Name: "a.xml", Score: 0.9, TotalPackets: 40, UsefulPackets: 20},
		{Name: "b.xml", Score: 0.5, TotalPackets: 40, UsefulPackets: 20},
		{Name: "c.xml", Score: 0.1, TotalPackets: 40, UsefulPackets: 20},
	}
}

// heldCands fills schedCands' HavePackets from a stand-in for the
// client's store — the caller's side of the contract, Client.Held in a
// real session loop.
func heldCands(held map[string]int) []Candidate {
	cands := schedCands()
	for i := range cands {
		cands[i].HavePackets = held[cands[i].Name]
	}
	return cands
}

func TestSchedulerServesAllocationsInScoreOrder(t *testing.T) {
	held := map[string]int{}
	var order []string
	s := &Scheduler{Fetch: func(_ context.Context, doc string, budget int) (int, error) {
		order = append(order, doc)
		held[doc] += budget
		return budget, nil
	}}
	res, err := s.RunWindow(context.Background(), heldCands(held), 50)
	if err != nil {
		t.Fatal(err)
	}
	if res.Received != 50 || res.Completed != 3 || res.Yielded {
		t.Fatalf("result = %+v", res)
	}
	if len(order) != 3 || order[0] != "a.xml" || order[1] != "b.xml" || order[2] != "c.xml" {
		t.Fatalf("serve order = %v", order)
	}
	// Held packets carry into the next window's plan: a.xml and b.xml are
	// full (20 each), c.xml holds 10 and needs 10 more.
	order = nil
	res, err = s.RunWindow(context.Background(), heldCands(held), 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 1 || order[0] != "c.xml" || res.Received != 10 {
		t.Fatalf("second window served %v (%+v), want just c.xml's remaining 10", order, res)
	}
}

// TestSchedulerKeepsPartialWindowOnCancel is the budget-accounting
// regression: a prefetch canceled mid-generation still spent the frames
// it received, and the next window, planned from what the store holds,
// asks only for the rest.
func TestSchedulerKeepsPartialWindowOnCancel(t *testing.T) {
	held := map[string]int{}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Scheduler{Fetch: func(c context.Context, doc string, budget int) (int, error) {
		// The cancel lands after 7 of the allocation's frames arrived —
		// mid-generation, the partially-intact state.
		cancel()
		held[doc] += 7
		return 7, c.Err()
	}}
	res, err := s.RunWindow(ctx, heldCands(held), 50)
	if err != nil {
		t.Fatalf("cancel must be a yield, got error: %v", err)
	}
	if !res.Yielded {
		t.Fatal("canceled window not reported as yielded")
	}
	if res.Received != 7 {
		t.Fatalf("received = %d, want the partial 7", res.Received)
	}
	// The next window must plan net of those 7 packets, not refetch them.
	var budgets []int
	s.Fetch = func(_ context.Context, doc string, budget int) (int, error) {
		if doc == "a.xml" {
			budgets = append(budgets, budget)
		}
		return budget, nil
	}
	if _, err := s.RunWindow(context.Background(), heldCands(held), 100); err != nil {
		t.Fatal(err)
	}
	if len(budgets) != 1 || budgets[0] != 13 {
		t.Fatalf("a.xml re-planned with %v, want [13] (20 useful - 7 held)", budgets)
	}
}

func TestSchedulerRealErrorIsNotAYield(t *testing.T) {
	boom := errors.New("boom")
	s := &Scheduler{Fetch: func(context.Context, string, int) (int, error) {
		return 3, boom
	}}
	res, err := s.RunWindow(context.Background(), schedCands(), 50)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if res.Yielded {
		t.Fatal("transport failure misreported as a yield")
	}
	if res.Received != 3 {
		t.Fatal("partial count dropped on the error path")
	}
}

func TestGateYieldsToForeground(t *testing.T) {
	g := &Gate{}
	s := &Scheduler{Gate: g, Fetch: func(context.Context, string, int) (int, error) {
		return 1, nil
	}}
	// Busy link: the window must not open at all.
	g.ForegroundStart()
	res, err := s.RunWindow(context.Background(), schedCands(), 10)
	if !errors.Is(err, ErrBusy) || !res.Yielded || res.Received != 0 {
		t.Fatalf("busy gate: res=%+v err=%v", res, err)
	}
	g.ForegroundEnd()
	if !g.Idle() {
		t.Fatal("gate not idle after matched end")
	}

	// Foreground arriving mid-window cancels the window's context.
	s.Fetch = func(c context.Context, doc string, budget int) (int, error) {
		g.ForegroundStart()
		defer g.ForegroundEnd()
		if c.Err() == nil {
			t.Fatal("window context survived a foreground start")
		}
		return 2, c.Err()
	}
	res, err = s.RunWindow(context.Background(), schedCands(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Yielded || res.Received != 2 {
		t.Fatalf("mid-window foreground: res=%+v", res)
	}
}

func TestGateWindowReleaseUnregisters(t *testing.T) {
	g := &Gate{}
	ctx, release, ok := g.WindowContext(context.Background())
	if !ok {
		t.Fatal("idle gate refused a window")
	}
	release()
	if ctx.Err() == nil {
		t.Fatal("release did not cancel the window context")
	}
	// A released window must not linger in the cancel set.
	g.ForegroundStart()
	g.ForegroundEnd()
	if _, _, ok := g.WindowContext(context.Background()); !ok {
		t.Fatal("gate refused a window while idle")
	}
}
