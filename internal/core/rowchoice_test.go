package core

import (
	"bytes"
	"testing"
)

// Regression: the rows handed
// to erasure.Decode once came from ranging over the intact map, so with
// more packets on hand than the generation needs, WHICH redundant rows
// fed the decoder depended on map iteration order — varying the decode
// work profile run to run. Packets now reach the generation's decoder in
// arrival order only, it stops taking them at completion, and its solve
// takes the held repairs in index order: a given arrival order always
// decodes from the same rows, and any order decodes to the same bytes.
func TestGenerationIntactDeterministicRowChoice(t *testing.T) {
	doc, scores := paperShapedDoc(t)
	plan, err := NewPlanWithScores(doc, scores, Config{MaxGeneration: 16})
	if err != nil {
		t.Fatal(err)
	}
	layout := plan.Layout()
	shape0 := layout.Shapes[0]
	if shape0.N <= shape0.M {
		t.Skipf("generation 0 has no parity (N=%d M=%d); nothing to choose between", shape0.N, shape0.M)
	}

	// Receivers fed the full generation-0 packet set (every clear and
	// parity row), in opposite insertion orders: clear rows first needs no
	// solve, parity first needs every parity row.
	seqs := make([]int, shape0.N)
	for i := range seqs {
		seqs[i] = i
	}
	build := func(order []int) *Receiver {
		rcv, err := NewReceiver(plan)
		if err != nil {
			t.Fatal(err)
		}
		for _, seq := range order {
			payload, err := plan.CookedPayload(seq)
			if err != nil {
				t.Fatal(err)
			}
			if err := rcv.Add(seq, payload); err != nil {
				t.Fatal(err)
			}
		}
		return rcv
	}
	reversed := make([]int, len(seqs))
	for i, s := range seqs {
		reversed[len(seqs)-1-i] = s
	}
	decoded := func(r *Receiver) [][]byte {
		t.Helper()
		if got := r.gens[0].Received(); got != shape0.M {
			t.Fatalf("decoder took %d packets, want exactly M = %d", got, shape0.M)
		}
		raw, err := r.DecodedGeneration(0)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	a, b, again := decoded(build(seqs)), decoded(build(reversed)), decoded(build(reversed))
	for i := range a {
		if !bytes.Equal(a[i], b[i]) || !bytes.Equal(b[i], again[i]) {
			t.Fatalf("raw packet %d differs between arrival orders", i)
		}
	}
}
