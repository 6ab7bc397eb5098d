package core

import (
	"bytes"
	"math/rand"
	"testing"
)

// completeReceiver fetches every generation of plan to completion under
// the given codec (seed==0 → vandermonde, else fountain) and returns
// the receiver plus the layout used.
func completeReceiver(t *testing.T, plan *Plan, seed uint64) *Receiver {
	t.Helper()
	var layout Layout
	if seed == 0 {
		layout = plan.Layout()
	} else {
		layout = plan.FountainLayout(seed)
	}
	rcv, err := NewReceiverFromLayout(layout)
	if err != nil {
		t.Fatal(err)
	}
	if seed == 0 {
		for seq := 0; seq < layout.N(); seq++ {
			frame, err := plan.Frame(seq)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := rcv.AddFrame(frame); err != nil {
				t.Fatal(err)
			}
		}
	} else {
		fountainFetch(t, plan, rcv, seed, rand.New(rand.NewSource(11)), 0.1)
	}
	if !rcv.Reconstructible() {
		t.Fatal("fetch did not complete")
	}
	return rcv
}

// TestSeedDecodedGenerationVandermonde drains a complete receiver
// through the persistence accessors and seeds a fresh one: the restart
// path. The seeded receiver's Have list must cover each generation's
// clear prefix (so a server honoring Have resends nothing useful-free)
// and the document must reconstruct byte-identically with zero
// additional frames.
func TestSeedDecodedGenerationVandermonde(t *testing.T) {
	doc, scores := paperShapedDoc(t)
	plan, err := NewPlanWithScores(doc, scores, Config{LOD: 4})
	if err != nil {
		t.Fatal(err)
	}
	src := completeReceiver(t, plan, 0)
	layout := src.Layout()

	fresh, err := NewReceiverFromLayout(layout)
	if err != nil {
		t.Fatal(err)
	}
	done := src.DoneGenerations()
	if len(done) != len(layout.Shapes) {
		t.Fatalf("complete receiver reports %d done generations, want %d", len(done), len(layout.Shapes))
	}
	for _, g := range done {
		raw, err := src.DecodedGeneration(g)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.SeedDecodedGeneration(g, raw); err != nil {
			t.Fatal(err)
		}
	}
	if !fresh.Reconstructible() {
		t.Fatal("seeded receiver not reconstructible")
	}
	// Have must cover each generation's systematic rows so the server's
	// skip set keeps those seqs off the air.
	have := map[int]bool{}
	for _, seq := range fresh.HaveList() {
		have[seq] = true
	}
	for g, shape := range layout.Shapes {
		off, err := layout.CookedOffset(g)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < shape.M; i++ {
			if !have[off+i] {
				t.Fatalf("seeded gen %d missing clear row %d from Have list", g, off+i)
			}
		}
	}
	body, err := fresh.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, doc.Body()) {
		t.Fatal("seeded reconstruction differs from source document")
	}
	if ic := fresh.InfoContent(); ic < 0.999 {
		t.Fatalf("seeded receiver IC = %v, want ~1", ic)
	}
}

// TestSeedDecodedGenerationFountain covers the rateless path, whose raw
// symbols are the stream's systematic prefix: they re-enter as held
// source packets, so the seeded generation reports reconstructible, its
// Have list covers the prefix, it serves unit text, and Reset empties it.
func TestSeedDecodedGenerationFountain(t *testing.T) {
	doc, scores := paperShapedDoc(t)
	plan, err := NewPlanWithScores(doc, scores, Config{LOD: 4, MaxGeneration: 8})
	if err != nil {
		t.Fatal(err)
	}
	const seed = 0xfeed
	src := completeReceiver(t, plan, seed)
	layout := src.Layout()

	fresh, err := NewReceiverFromLayout(layout)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range src.DoneGenerations() {
		raw, err := src.DecodedGeneration(g)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.SeedDecodedGeneration(g, raw); err != nil {
			t.Fatal(err)
		}
	}
	have := map[int]bool{}
	for _, seq := range fresh.HaveList() {
		have[seq] = true
	}
	for g, shape := range layout.Shapes {
		if !fresh.GenerationReconstructible(g) {
			t.Fatalf("seeded fountain gen %d not reconstructible", g)
		}
		for i := 0; i < shape.M; i++ {
			if seq, _ := layout.WireSeq(g, i); !have[seq] || !layout.IsClear(seq) {
				t.Fatalf("seeded gen %d source %d: held %v, clear %v", g, i, have[seq], layout.IsClear(seq))
			}
		}
	}
	body, err := fresh.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, doc.Body()) {
		t.Fatal("seeded fountain reconstruction differs from source")
	}
	if ic := fresh.InfoContent(); ic < 0.999 {
		t.Fatalf("seeded fountain IC = %v, want ~1", ic)
	}
	// Seeded symbols back the progressive render path too.
	units := fresh.AvailableUnits()
	if len(units) == 0 {
		t.Fatal("seeded receiver exposes no units")
	}
	if _, ok := fresh.UnitText(units[0]); !ok {
		t.Fatal("seeded receiver cannot serve unit text")
	}
	fresh.Reset()
	if fresh.Reconstructible() {
		t.Fatal("Reset did not clear seeded state")
	}
	for g := range layout.Shapes {
		if fresh.GenerationReconstructible(g) {
			t.Fatalf("Reset left gen %d seeded", g)
		}
	}
}

// TestSeedDecodedGenerationValidates rejects malformed seeds: wrong
// generation index, wrong packet count, wrong packet size.
func TestSeedDecodedGenerationValidates(t *testing.T) {
	doc, scores := paperShapedDoc(t)
	plan, err := NewPlanWithScores(doc, scores, Config{})
	if err != nil {
		t.Fatal(err)
	}
	layout := plan.Layout()
	rcv, err := NewReceiverFromLayout(layout)
	if err != nil {
		t.Fatal(err)
	}
	good := make([][]byte, layout.Shapes[0].M)
	for i := range good {
		good[i] = make([]byte, layout.PacketSize)
	}
	if err := rcv.SeedDecodedGeneration(-1, good); err == nil {
		t.Fatal("negative generation accepted")
	}
	if err := rcv.SeedDecodedGeneration(len(layout.Shapes), good); err == nil {
		t.Fatal("out-of-range generation accepted")
	}
	if err := rcv.SeedDecodedGeneration(0, good[:len(good)-1]); err == nil {
		t.Fatal("short seed accepted")
	}
	bad := append([][]byte(nil), good...)
	bad[0] = make([]byte, layout.PacketSize-1)
	if err := rcv.SeedDecodedGeneration(0, bad); err == nil {
		t.Fatal("undersized packet accepted")
	}
	if _, err := rcv.DecodedGeneration(0); err == nil {
		t.Fatal("unseeded generation decoded")
	}
	if got := rcv.DoneGenerations(); len(got) != 0 {
		t.Fatalf("empty receiver reports done generations: %v", got)
	}
}
