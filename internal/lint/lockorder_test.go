package lint_test

import (
	"strings"
	"testing"

	"mobweb/internal/lint"
	"mobweb/internal/lint/linttest"
)

func TestLockOrder(t *testing.T) {
	linttest.Run(t, lint.Locks, "./testdata/src/lockorder")
}

// A lock-order cycle and a held-across-blocker finding inside the same
// critical section are one defect; the locks analyzer keeps the cycle
// report and drops the symptom. The held-across finding on the
// cycle-free mutex must survive the dedup. (This test once also ran the
// held-across check alone to show both sleeps reported; that mode went
// with the separate lockscope analyzer, the dedup is now internal.)
func TestLockOrderSuppressesLockScopeInsideCycle(t *testing.T) {
	diags, err := lint.Run(".", []string{"./testdata/src/lockdedup"}, []*lint.Analyzer{lint.Locks})
	if err != nil {
		t.Fatal(err)
	}
	var cycles, held []lint.Diagnostic
	for _, d := range diags {
		switch {
		case strings.HasPrefix(d.Message, "lock order cycle"):
			cycles = append(cycles, d)
		case strings.Contains(d.Message, "held across"):
			held = append(held, d)
		default:
			t.Errorf("unexpected finding: %s", d)
		}
	}
	if len(cycles) != 2 {
		t.Errorf("want the cycle reported from both witnessing edges, got %d: %v", len(cycles), cycles)
	}
	if len(held) != 1 {
		t.Fatalf("want exactly the cycle-free held-across finding to survive dedup, got %d: %v", len(held), held)
	}
	if !strings.Contains(held[0].Message, "muLone") {
		t.Errorf("surviving held-across finding should be about muLone, got: %s", held[0])
	}
}
