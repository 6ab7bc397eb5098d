package lint_test

import (
	"testing"

	"mobweb/internal/lint"
	"mobweb/internal/lint/linttest"
)

func TestPlanMutSharedSlices(t *testing.T) {
	linttest.Run(t, lint.PlanMut, "./testdata/src/planmut")
}

func TestPlanMutOwnerPackage(t *testing.T) {
	defer linttest.Override(&lint.PlanOwnerPackage, "mobweb/internal/lint/testdata/src/planmutowner")()
	linttest.Run(t, lint.PlanMut, "./testdata/src/planmutowner")
}

// The real owner package must satisfy its own analyzer: every
// Plan/generation field write in core sits in a constructor.
func TestPlanMutCleanOnCore(t *testing.T) {
	diags, err := lint.Run(".", []string{"mobweb/internal/core"}, []*lint.Analyzer{lint.PlanMut})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unexpected diagnostic in core: %s", d)
	}
}
