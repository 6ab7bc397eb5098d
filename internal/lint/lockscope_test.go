package lint_test

import (
	"testing"

	"mobweb/internal/lint"
	"mobweb/internal/lint/linttest"
)

func TestLockScope(t *testing.T) {
	linttest.Run(t, lint.Locks, "./testdata/src/lockscope")
}

// The planner is the reference implementation of the discipline this
// analyzer enforces (it drops p.mu around core.NewPlan); transport
// carries the fix for the Server.Close finding. Both must stay clean.
func TestLockScopeCleanOnPlannerAndTransport(t *testing.T) {
	diags, err := lint.Run(".", []string{"mobweb/internal/planner", "mobweb/internal/transport"}, []*lint.Analyzer{lint.Locks})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}
