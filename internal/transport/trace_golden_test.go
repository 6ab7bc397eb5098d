package transport

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"mobweb/internal/channel"
	"mobweb/internal/corpus"
	"mobweb/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

// TestGoldenChaosTrace pins end-to-end trace determinism: a fetch through
// a fully seeded weakly-connected condition — per-frame Bernoulli
// corruption, one exact-offset connection kill, adaptive γ — must emit a
// byte-identical timeline JSON on every run, and that timeline is frozen
// as a golden file. Determinism holds because events carry no timestamps,
// the fetch loop is single-goroutine, the kill offset is an exact byte
// budget, and frames drained after a stop are never recorded.
//
// Regenerate after an intentional protocol or tracing change with:
//
//	go test ./internal/transport/ -run GoldenChaosTrace -update
func TestGoldenChaosTrace(t *testing.T) {
	run := func() []byte {
		t.Helper()
		model, err := channel.NewBernoulli(0.25, 21)
		if err != nil {
			t.Fatal(err)
		}
		// KillAfterMin == KillAfterMax pins the kill to an exact byte
		// offset; Stall stays zero so no timing enters the schedule.
		policy := ChaosPolicy{Seed: 21, KillAfterMin: 4096, KillAfterMax: 4096, MaxKills: 1}
		client, chaos := startChaosServer(t, ServerOptions{InjectorFactory: oneChannel(NewModelInjector(model))}, policy)
		tr := obs.NewTrace(0)
		res, err := client.Fetch(FetchOptions{
			Doc:        corpus.DraftName,
			Caching:    true,
			MaxRounds:  30,
			AdaptGamma: true,
			Trace:      tr,
		})
		if err != nil {
			t.Fatalf("seeded chaos fetch: %v", err)
		}
		if res.Body == nil {
			t.Fatal("seeded chaos fetch incomplete")
		}
		if chaos.Kills() != 1 {
			t.Fatalf("kill schedule delivered %d kills, want exactly 1", chaos.Kills())
		}
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	first := run()
	second := run()
	if !bytes.Equal(first, second) {
		t.Fatal("timeline differs between two identically seeded runs")
	}

	golden := filepath.Join("testdata", "chaos_trace.golden.json")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, first, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(first, want) {
		t.Errorf("timeline deviates from golden file (%d vs %d bytes); regenerate with -update if the change is intentional",
			len(first), len(want))
	}
}
