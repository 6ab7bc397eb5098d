package core

import (
	"testing"
)

// Regression for a defect the nondet analyzer surfaced: the rows handed
// to erasure.Decode once came from ranging over the intact map, so with
// more packets on hand than the generation needs, WHICH redundant rows
// fed the decoder depended on map iteration order — varying the decode
// work profile run to run. The
// generation decoder now lists held rows by ascending index whatever
// order they arrived in.
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

	// Two receivers fed the same full generation-0 packet set (every
	// clear and parity row), but in opposite insertion orders.
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
	a := build(seqs)
	b := build(reversed)

	rowsOf := func(r *Receiver) []int {
		got := r.gens[0].(*vandermondeGen).heldRows()
		rows := make([]int, len(got))
		for i, rec := range got {
			rows[i] = rec.Index
		}
		return rows
	}
	rowsA, rowsB := rowsOf(a), rowsOf(b)
	if len(rowsA) != len(rowsB) {
		t.Fatalf("intact count differs: %d vs %d", len(rowsA), len(rowsB))
	}
	for i := range rowsA {
		if rowsA[i] != rowsB[i] {
			t.Fatalf("row order differs at %d: %v vs %v", i, rowsA, rowsB)
		}
		if i > 0 && rowsA[i-1] >= rowsA[i] {
			t.Fatalf("held rows not ascending: %v", rowsA)
		}
	}
}
