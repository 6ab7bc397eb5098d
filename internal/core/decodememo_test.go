package core

import (
	"bytes"
	"testing"

	"mobweb/internal/obs"
)

// TestReceiverDecodeMemo keeps its name from the per-generation memo the
// receiver once kept beside its decoders. What it pins now lives in the
// decoders: each generation is decoded once — one core.decodes and one
// decode event — however often UnitText, Render, Reconstruct and
// DecodedGeneration read it, further Adds do not decode it again, and
// Reset starts over.
func TestReceiverDecodeMemo(t *testing.T) {
	doc, scores := paperShapedDoc(t)
	plan, err := NewPlanWithScores(doc, scores, Config{MaxGeneration: 16})
	if err != nil {
		t.Fatal(err)
	}
	rcv, err := NewReceiver(plan)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace(0)
	rcv.SetTrace(tr)
	layout := plan.Layout()
	gens := int64(len(layout.Shapes))

	// Withhold as many of generation 0's clear packets as it has parity,
	// so its decode needs a real inversion; everything else arrives clear.
	shape0 := layout.Shapes[0]
	withheld := shape0.N - shape0.M
	feed := func() {
		t.Helper()
		for seq := 0; seq < layout.N(); seq++ {
			if g, local, _ := layout.CookedGeneration(seq); g == 0 && local < withheld {
				continue
			}
			payload, err := plan.CookedPayload(seq)
			if err != nil {
				t.Fatal(err)
			}
			if err := rcv.Add(seq, payload); err != nil {
				t.Fatal(err)
			}
		}
		if !rcv.Reconstructible() {
			t.Fatal("receiver not reconstructible with parity for gen 0 and full clear elsewhere")
		}
	}
	decodes := func() int64 { return coreMetrics.decodes.Value() }
	events := func() int64 {
		n := int64(0)
		for _, ev := range tr.Events() {
			if ev.Type == obs.EventDecode {
				n++
			}
		}
		return n
	}

	feed()
	if rcv.gens[0].Decoded() {
		t.Fatal("generation 0 decoded before anything read it")
	}
	start := decodes()
	want, err := rcv.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, plan.Doc().Body()) {
		t.Fatal("reconstructed body mismatch")
	}
	if got := decodes() - start; got != gens || events() != gens {
		t.Fatalf("Reconstruct: %d decodes, %d decode events, want one per generation (%d)", got, events(), gens)
	}
	raw, err := rcv.DecodedGeneration(0)
	if err != nil {
		t.Fatal(err)
	}
	first := &raw[0][0]

	// Further reads serve the same decode.
	rcv.Render()
	for _, seg := range layout.Accrual {
		rcv.UnitText(seg)
	}
	if raw, _ := rcv.DecodedGeneration(0); &raw[0][0] != first {
		t.Fatal("a read decoded generation 0 again")
	}

	// Adding more packets does not decode again: the raw bytes of a
	// complete generation are fixed.
	payload, err := plan.CookedPayload(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := rcv.Add(0, payload); err != nil {
		t.Fatal(err)
	}
	got, err := rcv.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("reconstruction changed after extra Add")
	}
	if raw, _ := rcv.DecodedGeneration(0); &raw[0][0] != first || decodes()-start != gens || events() != gens {
		t.Fatalf("reads and an Add after the decode: %d decodes, %d events, want %d", decodes()-start, events(), gens)
	}

	// Reset drops the decodes with the packets; the next fetch decodes anew.
	rcv.Reset()
	for g := range rcv.gens {
		if rcv.gens[g].Decoded() || rcv.GenerationReconstructible(g) {
			t.Fatalf("Reset left generation %d decoded", g)
		}
	}
	feed()
	if got, err := rcv.Reconstruct(); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("after Reset: %v", err)
	}
	if got := decodes() - start; got != 2*gens {
		t.Fatalf("after Reset and a refetch: %d decodes, want %d", got, 2*gens)
	}
}
