package main

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"mobweb/internal/census"
)

func TestRunTable2(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"-exp", "table2"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table 2", "10240", "19.2"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunTable1(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"-exp", "table1"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "QIC") {
		t.Error("Table 1 output missing QIC column")
	}
}

func TestRunFig2And3(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"-exp", "fig2"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "S = 99%") {
		t.Error("fig2 missing the 99% panel")
	}
	buf.Reset()
	if err := run(&buf, []string{"-exp", "fig3"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "redundancy ratio versus failure") {
		t.Error("fig3 missing title")
	}
}

func TestRunSimFigureSmallScale(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"-exp", "fig4", "-docs", "5", "-reps", "1"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 4d") {
		t.Error("fig4 missing panel d")
	}
}

func TestRunExtension(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"-exp", "ext-adaptive", "-docs", "5", "-reps", "1"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "re-estimated") {
		t.Error("ext-adaptive output missing")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"-exp", "fig99"}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"-nonsense"}); err == nil {
		t.Error("bad flag accepted")
	}
}

// TestFlagsMatchCensus holds every flag to its DESIGN.md §22 row.
func TestFlagsMatchCensus(t *testing.T) {
	if err := census.CheckFlags("../../DESIGN.md", newFlagSet(new(options))); err != nil {
		t.Error(err)
	}
}

func TestRunHelpSucceeds(t *testing.T) {
	if err := run(io.Discard, []string{"-h"}); err != nil {
		t.Errorf("run -h: %v", err)
	}
}

// TestSeedReachesTheSimulation: -seed draws another channel and document
// realisation, so a seeded figure repeats under its seed and moves under
// another one.
func TestSeedReachesTheSimulation(t *testing.T) {
	figure := func(seed string) string {
		var buf bytes.Buffer
		if err := run(&buf, []string{"-exp", "fig4", "-docs", "5", "-reps", "1", "-seed", seed}); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if figure("2") != figure("2") {
		t.Error("-seed 2 does not repeat")
	}
	if figure("2") == figure("1") {
		t.Error("-seed 2 and -seed 1 draw the same figure")
	}
}
