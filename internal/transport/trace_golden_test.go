package transport

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"mobweb/internal/channel"
	"mobweb/internal/corpus"
	"mobweb/internal/erasure"
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
	first := seededChaosTimeline(t, 21, erasure.CodecVandermonde, 4096, 4096)

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

// seededChaosTimeline runs one fully seeded weakly-connected fetch —
// per-frame Bernoulli corruption, one connection kill at a seeded byte
// offset in [killMin, killMax] of the first round, adaptive γ —
// timelineRuns times in this process, fails unless every run's timeline
// JSON is byte-identical, and returns it. Two runs alone can miss a
// map-order leak: a small map's two iteration orders agree by chance
// often enough.
func seededChaosTimeline(t *testing.T, seed int64, codec erasure.CodecID, killMin, killMax int) []byte {
	t.Helper()
	run := func() []byte {
		t.Helper()
		model, err := channel.NewBernoulli(0.25, seed)
		if err != nil {
			t.Fatal(err)
		}
		// The kill falls at a byte offset the seed alone decides, inside
		// the first round's stream; Stall stays zero so no timing enters
		// the schedule.
		policy := ChaosPolicy{Seed: seed, KillAfterMin: killMin, KillAfterMax: killMax, MaxKills: 1}
		client, chaos := startChaosServer(t, ServerOptions{InjectorFactory: oneChannel(NewModelInjector(model))}, policy)
		tr := obs.NewTrace(0)
		res, err := client.Fetch(FetchOptions{
			Doc:        corpus.DraftName,
			Caching:    true,
			MaxRounds:  30,
			AdaptGamma: true,
			Codec:      codec,
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
	for i := 1; i < timelineRuns; i++ {
		if again := run(); !bytes.Equal(first, again) {
			t.Fatalf("seed %d, %v: run %d's timeline differs from run 0's", seed, codec, i)
		}
	}
	return first
}

// timelineRuns is how often a seeded run repeats in one process before
// its output counts as reproducible.
const timelineRuns = 3

// TestSeededChaosRepeats holds more seeds, seeded kill offsets and the
// fountain codec to seededChaosTimeline's reproducibility, without a
// golden file each.
func TestSeededChaosRepeats(t *testing.T) {
	for _, codec := range []erasure.CodecID{erasure.CodecVandermonde, erasure.CodecFountain} {
		for _, seed := range []int64{3, 7, 42} {
			seededChaosTimeline(t, seed, codec, 3000, 9000)
		}
	}
}
