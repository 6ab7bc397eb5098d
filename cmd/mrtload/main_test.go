package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseMix(t *testing.T) {
	mix, err := parseMix("0:0.8, 0.05:0.15 ,0.2:0.05")
	if err != nil {
		t.Fatal(err)
	}
	if len(mix) != 3 || mix[0].Alpha != 0 || mix[2].Weight != 0.05 {
		t.Errorf("parsed %+v", mix)
	}
	for _, bad := range []string{"", "0.5", "x:1", "0.5:y", "-0.1:1", "1:1", "0.5:0"} {
		if _, err := parseMix(bad); err == nil {
			t.Errorf("mixture %q accepted", bad)
		}
	}
}

func TestDrawAlphaCoversMixture(t *testing.T) {
	mix, err := parseMix("0:0.5,0.2:0.5")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[float64]int{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		seen[drawAlpha(rng, mix)]++
	}
	if seen[0] == 0 || seen[0.2] == 0 {
		t.Errorf("mixture draws %v missed a component", seen)
	}
}

func TestRunBadArgs(t *testing.T) {
	for _, args := range [][]string{
		{"-bogus"},
		{"-alpha-mix", "nope"},
		{"-docs", "0"},
		{"-zipf", "1.0"},
	} {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestRunSmoke drives the real two-pass flow at a tiny scale: both the
// cached and baseline passes complete, the JSON report lands with the
// gate fields populated, and the cached pass's hit rate clears a modest
// smoke floor.
func TestRunSmoke(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "out", "BENCH_load.json")
	txtPath := filepath.Join(dir, "out", "bench.txt")
	err := run([]string{
		"-clients", "30", "-docs", "2", "-doc-kb", "2",
		"-concurrency", "8", "-seed", "1", "-rate", "500",
		"-min-hit-rate", "0.5",
		"-json", jsonPath, "-txt", txtPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Cached.Fetches != 30 || rep.Baseline.Fetches != 30 {
		t.Errorf("fetches cached=%d baseline=%d, want 30/30", rep.Cached.Fetches, rep.Baseline.Fetches)
	}
	if rep.Cached.HitRate < 0.5 {
		t.Errorf("cached hit rate %.3f below smoke floor", rep.Cached.HitRate)
	}
	// The baseline runs the same path with a budget that retains nothing:
	// every frame sent is a cook, none is a hit.
	if rep.Baseline.Hits != 0 || rep.Baseline.CacheBytes != 0 || rep.Baseline.Cooks != rep.Baseline.FrameMarshals {
		t.Errorf("baseline pass retained frames: %+v", rep.Baseline)
	}
	if rep.WorkReduction <= 1 {
		t.Errorf("work reduction %.2f, want > 1", rep.WorkReduction)
	}
	txt, err := os.ReadFile(txtPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(txt), "work reduction") {
		t.Errorf("text summary missing reduction line:\n%s", txt)
	}
}

// TestRunHitRateGate verifies -min-hit-rate fails the run when the gate
// cannot be met (a single fetch per doc leaves only cold misses).
func TestRunHitRateGate(t *testing.T) {
	err := run([]string{
		"-clients", "1", "-docs", "1", "-doc-kb", "1",
		"-seed", "1", "-min-hit-rate", "0.99", "-no-baseline", "-json", "",
	})
	if err == nil || !strings.Contains(err.Error(), "below gate") {
		t.Errorf("gate did not trip: %v", err)
	}
}
