package lint_test

import (
	"testing"

	"mobweb/internal/lint"
	"mobweb/internal/lint/linttest"
)

func TestFrameMutSharedSlices(t *testing.T) {
	linttest.Run(t, lint.FrameMut, "./testdata/src/framemut")
}

// The layers that actually consume cached frames must satisfy the
// analyzer: transport writes shared frames to sockets (or copies them
// before injection), the gateway streams them, and the planner cooks
// them — none may write through a cache-owned slice.
func TestFrameMutCleanOnConsumers(t *testing.T) {
	pkgs := []string{
		"mobweb/internal/transport",
		"mobweb/internal/planner",
		"mobweb/internal/gateway",
	}
	diags, err := lint.Run(".", pkgs, []*lint.Analyzer{lint.FrameMut})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}
