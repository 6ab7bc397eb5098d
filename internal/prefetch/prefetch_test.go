package prefetch

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestPlanGreedyByScore(t *testing.T) {
	cands := []Candidate{
		{Name: "low", Score: 0.1, TotalPackets: 60},
		{Name: "high", Score: 0.9, TotalPackets: 60},
		{Name: "mid", Score: 0.5, TotalPackets: 60},
	}
	allocs, err := Plan(cands, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(allocs) != 2 {
		t.Fatalf("got %d allocations, want 2", len(allocs))
	}
	if allocs[0].Name != "high" || allocs[0].Packets != 60 {
		t.Errorf("first allocation %+v, want high:60", allocs[0])
	}
	if allocs[1].Name != "mid" || allocs[1].Packets != 40 {
		t.Errorf("second allocation %+v, want mid:40", allocs[1])
	}
}

// Equal scores keep the order the candidates were given in, so one set of
// candidates always gets one allocation.
func TestPlanTiesKeepCandidateOrder(t *testing.T) {
	var cands []Candidate
	for _, name := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		cands = append(cands, Candidate{Name: name, Score: 0.5, TotalPackets: 10})
	}
	for run := 0; run < 3; run++ {
		allocs, err := Plan(cands, 35)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, a := range allocs {
			got = append(got, a.Name)
		}
		if fmt.Sprint(got) != "[a b c d]" || allocs[3].Packets != 5 {
			t.Fatalf("run %d: allocated %v, want [a b c d] with 5 packets to d", run, allocs)
		}
	}
}

func TestPlanRespectsUsefulPackets(t *testing.T) {
	cands := []Candidate{
		{Name: "a", Score: 1, TotalPackets: 60, UsefulPackets: 10},
		{Name: "b", Score: 0.5, TotalPackets: 60, UsefulPackets: 10},
	}
	allocs, err := Plan(cands, 100)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, a := range allocs {
		if a.Packets > 10 {
			t.Errorf("allocation %+v exceeds useful cap", a)
		}
		total += a.Packets
	}
	if total != 20 {
		t.Errorf("total allocated %d, want 20", total)
	}
}

func TestPlanSkipsAlreadyCached(t *testing.T) {
	cands := []Candidate{
		{Name: "a", Score: 1, TotalPackets: 60, HavePackets: 60},
		{Name: "b", Score: 0.5, TotalPackets: 60},
	}
	allocs, err := Plan(cands, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(allocs) != 1 || allocs[0].Name != "b" {
		t.Errorf("allocations %+v, want only b", allocs)
	}
}

func TestPlanZeroBudget(t *testing.T) {
	allocs, err := Plan([]Candidate{{Name: "a", Score: 1, TotalPackets: 10}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(allocs) != 0 {
		t.Errorf("zero budget allocated %v", allocs)
	}
}

func TestPlanValidation(t *testing.T) {
	if _, err := Plan(nil, -1); err == nil {
		t.Error("negative budget accepted")
	}
	if _, err := Plan([]Candidate{{Name: "a", Score: -1}}, 10); err == nil {
		t.Error("negative score accepted")
	}
	if _, err := Plan([]Candidate{{Name: "a", TotalPackets: -1}}, 10); err == nil {
		t.Error("negative packets accepted")
	}
}

func TestPlanNeverExceedsBudget(t *testing.T) {
	f := func(scores []uint8, budget uint16) bool {
		cands := make([]Candidate, len(scores))
		for i, s := range scores {
			cands[i] = Candidate{
				Name:         string(rune('a' + i%26)),
				Score:        float64(s),
				TotalPackets: 60,
			}
		}
		allocs, err := Plan(cands, int(budget))
		if err != nil {
			return false
		}
		total := 0
		for _, a := range allocs {
			if a.Packets <= 0 {
				return false
			}
			total += a.Packets
		}
		return total <= int(budget)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBudget(t *testing.T) {
	// 10 s of idle 19.2 kbps fits 92 × 260-byte frames.
	if got := Budget(10, 19200, 260); got != 92 {
		t.Errorf("Budget = %d, want 92", got)
	}
	if Budget(-1, 19200, 260) != 0 || Budget(1, 0, 260) != 0 || Budget(1, 19200, 0) != 0 {
		t.Error("degenerate budgets not zero")
	}
}
