package main

import (
	"testing"

	"mobweb/internal/census"
	"mobweb/internal/shard"
)

func TestParseReplicas(t *testing.T) {
	reps, err := parseReplicas("a=10.0.0.1:8047@10.0.0.1:8049, 10.0.0.2:8047 ,c=10.0.0.3:8047")
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 3 {
		t.Fatalf("parsed %d replicas, want 3", len(reps))
	}
	if reps[0].Name != "a" || reps[0].Addr != "10.0.0.1:8047" || reps[0].MetricsAddr != "10.0.0.1:8049" {
		t.Errorf("replica 0 = %+v", reps[0])
	}
	// Unnamed entries are numbered by position.
	if reps[1].Name != "r1" || reps[1].Addr != "10.0.0.2:8047" || reps[1].MetricsAddr != "" {
		t.Errorf("replica 1 = %+v", reps[1])
	}
	if reps[2].Name != "c" || reps[2].Addr != "10.0.0.3:8047" {
		t.Errorf("replica 2 = %+v", reps[2])
	}
}

func TestParseReplicasRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{"", "  ", "a=", "=1.2.3.4:1", "a=1.2.3.4:1@", "a=1.2.3.4:1,,b=1.2.3.4:2"} {
		if _, err := parseReplicas(spec); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
}

func TestRunRejectsMissingReplicas(t *testing.T) {
	if err := run([]string{"-addr", "127.0.0.1:0"}); err == nil {
		t.Fatal("run without -replicas succeeded")
	}
}

// TestFlagsMatchCensus holds every flag to its DESIGN.md §22 row.
func TestFlagsMatchCensus(t *testing.T) {
	if err := census.CheckFlags("../../DESIGN.md", newFlagSet(new(options))); err != nil {
		t.Error(err)
	}
}

func TestRunHelpSucceeds(t *testing.T) {
	if err := run([]string{"-h"}); err != nil {
		t.Errorf("run -h: %v", err)
	}
}

// TestShedMaxInflight: the front's budget defaults to 64 streams, and
// -shed-max-inflight 0 builds no gate, as on mrtserver.
func TestShedMaxInflight(t *testing.T) {
	admitted := func(args ...string) int {
		var o options
		if err := newFlagSet(&o).Parse(args); err != nil {
			t.Fatal(err)
		}
		front, err := newFront(o, []shard.Replica{{Name: "r0", Addr: "127.0.0.1:1"}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer front.Close()
		n := 0
		for ; n < 100; n++ {
			if _, _, ok := front.Gate().Admit(true); !ok {
				break
			}
		}
		return n
	}
	if n := admitted(); n != 64 {
		t.Errorf("default budget admitted %d streams, want 64", n)
	}
	if n := admitted("-shed-max-inflight", "3"); n != 3 {
		t.Errorf("-shed-max-inflight 3 admitted %d streams, want 3", n)
	}
	if n := admitted("-shed-max-inflight", "0"); n != 100 {
		t.Errorf("-shed-max-inflight 0 admitted %d of 100 streams, want no gate", n)
	}
}
