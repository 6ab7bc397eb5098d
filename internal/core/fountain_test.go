package core

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"mobweb/internal/erasure"
	"mobweb/internal/fountain"
	"mobweb/internal/packet"
)

// fountainFetch streams plan frames into rcv under the given loss rate
// until reconstructible, returning frames sent.
func fountainFetch(t *testing.T, plan *Plan, rcv *Receiver, seed uint64, lossRNG *rand.Rand, alpha float64) int {
	t.Helper()
	sent := 0
	seqs := make([]int, plan.Generations())
	for !rcv.Reconstructible() {
		if sent > 100*plan.M()+500 {
			t.Fatalf("fetch did not complete after %d frames", sent)
		}
		for g := 0; g < plan.Generations(); g++ {
			if rcv.GenerationReconstructible(g) {
				continue
			}
			frame, err := plan.FountainFrame(seed, g, seqs[g])
			if err != nil {
				t.Fatal(err)
			}
			seqs[g]++
			sent++
			if lossRNG != nil && lossRNG.Float64() < alpha {
				continue
			}
			if _, intact, err := rcv.AddFrame(frame); err != nil {
				t.Fatal(err)
			} else if !intact {
				t.Fatal("uncorrupted frame reported corrupt")
			}
		}
	}
	return sent
}

func TestFountainPlanRoundtrip(t *testing.T) {
	doc, scores := paperShapedDoc(t)
	plan, err := NewPlanWithScores(doc, scores, Config{LOD: 4})
	if err != nil {
		t.Fatal(err)
	}
	const seed = 0x0dd5eed
	layout := plan.FountainLayout(seed)
	if err := layout.Validate(); err != nil {
		t.Fatal(err)
	}
	if layout.Codec != erasure.CodecFountain || layout.Seed != seed {
		t.Fatalf("layout codec/seed = %v/%#x", layout.Codec, layout.Seed)
	}
	rcv, err := NewReceiverFromLayout(layout)
	if err != nil {
		t.Fatal(err)
	}
	fountainFetch(t, plan, rcv, seed, rand.New(rand.NewSource(1)), 0.3)
	body, err := rcv.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, doc.Body()) {
		t.Fatal("reconstructed body differs from source")
	}
	if ic := rcv.InfoContent(); ic < 0.999 {
		t.Fatalf("complete receiver IC = %v, want ~1", ic)
	}
}

// TestFountainProgressiveIC checks the progressive payoff end to end:
// with several generations in flight, early-completing generations (and
// the source symbols of the others) accrue IC before the whole document
// is reconstructible.
func TestFountainProgressiveIC(t *testing.T) {
	doc, scores := paperShapedDoc(t)
	plan, err := NewPlanWithScores(doc, scores, Config{LOD: 4, MaxGeneration: 8})
	if err != nil {
		t.Fatal(err)
	}
	const seed = 77
	rcv, err := NewReceiverFromLayout(plan.FountainLayout(seed))
	if err != nil {
		t.Fatal(err)
	}
	lossRNG := rand.New(rand.NewSource(3))
	sawPartial := false
	seqs := make([]int, plan.Generations())
	for sent := 0; !rcv.Reconstructible(); sent++ {
		if sent > 100*plan.M() {
			t.Fatal("no completion")
		}
		g := sent % plan.Generations()
		if rcv.GenerationReconstructible(g) {
			continue
		}
		frame, err := plan.FountainFrame(seed, g, seqs[g])
		if err != nil {
			t.Fatal(err)
		}
		seqs[g]++
		if lossRNG.Float64() < 0.2 {
			continue
		}
		if _, _, err := rcv.AddFrame(frame); err != nil {
			t.Fatal(err)
		}
		if ic := rcv.InfoContent(); ic > 0.05 && ic < 0.95 && !rcv.Reconstructible() {
			sawPartial = true
		}
	}
	if !sawPartial {
		t.Fatal("IC never accrued partially; progressive recovery is not wired through")
	}
}

func TestFountainRebasePreservesPackets(t *testing.T) {
	doc, scores := paperShapedDoc(t)
	plan, err := NewPlanWithScores(doc, scores, Config{})
	if err != nil {
		t.Fatal(err)
	}
	const seed = 42
	layout := plan.FountainLayout(seed)
	rcv, err := NewReceiverFromLayout(layout)
	if err != nil {
		t.Fatal(err)
	}
	for seq := 0; seq < 10; seq++ {
		frame, err := plan.FountainFrame(seed, 0, seq)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := rcv.AddFrame(frame); err != nil {
			t.Fatal(err)
		}
	}
	held := rcv.IntactCount()
	reb, err := rcv.Rebase(layout)
	if err != nil {
		t.Fatal(err)
	}
	if reb.IntactCount() != held {
		t.Fatalf("rebase kept %d of %d packets", reb.IntactCount(), held)
	}
	if len(reb.HaveList()) != held {
		t.Fatalf("HaveList %d entries, want %d", len(reb.HaveList()), held)
	}

	// Seed or codec changes must refuse.
	other := plan.FountainLayout(seed + 1)
	if _, err := rcv.Rebase(other); err == nil {
		t.Fatal("rebase across seeds accepted")
	}
	if _, err := rcv.Rebase(plan.Layout()); err == nil {
		t.Fatal("rebase across codecs accepted")
	}
}

func TestFountainPersistRoundtrip(t *testing.T) {
	doc, scores := paperShapedDoc(t)
	plan, err := NewPlanWithScores(doc, scores, Config{})
	if err != nil {
		t.Fatal(err)
	}
	const seed = 99
	rcv, err := NewReceiverFromLayout(plan.FountainLayout(seed))
	if err != nil {
		t.Fatal(err)
	}
	fountainFetch(t, plan, rcv, seed, rand.New(rand.NewSource(5)), 0.25)

	// The persistence seam (seed.go): held packets drained by wire seq
	// refill a fresh receiver of the same layout.
	loaded, err := NewReceiverFromLayout(rcv.Layout())
	if err != nil {
		t.Fatal(err)
	}
	for _, seq := range rcv.HaveList() {
		payload, ok := rcv.Packet(seq)
		if !ok {
			t.Fatalf("held seq %d has no packet", seq)
		}
		if err := loaded.Add(seq, payload); err != nil {
			t.Fatal(err)
		}
	}
	if !loaded.Reconstructible() {
		t.Fatal("loaded receiver lost reconstructibility")
	}
	want, err := rcv.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("persisted receiver reconstructed different bytes")
	}
}

func TestFountainFrameCorruptionDetected(t *testing.T) {
	doc, scores := paperShapedDoc(t)
	plan, err := NewPlanWithScores(doc, scores, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rcv, err := NewReceiverFromLayout(plan.FountainLayout(5))
	if err != nil {
		t.Fatal(err)
	}
	frame, err := plan.FountainFrame(5, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := append([]byte(nil), frame...)
	packet.CorruptFrame(corrupted, 12345)
	_, intact, err := rcv.AddFrame(corrupted)
	if err != nil {
		t.Fatal(err)
	}
	if intact {
		t.Fatal("corrupted fountain frame accepted as intact")
	}
	if rcv.IntactCount() != 0 {
		t.Fatal("corrupted frame stored")
	}
}

// TestFountainFrameAllocations pins the cook path to one allocation per
// frame, source or repair: the frame itself, sized up front for header
// and payload, so AppendPayload never grows it.
func TestFountainFrameAllocations(t *testing.T) {
	doc, scores := paperShapedDoc(t)
	plan, err := NewPlanWithScores(doc, scores, Config{})
	if err != nil {
		t.Fatal(err)
	}
	const seed = 9
	m := plan.Layout().Shapes[0].M
	if _, err := plan.FountainFrame(seed, 0, 0); err != nil { // builds the encoder
		t.Fatal(err)
	}
	for _, seq := range []int{0, m} {
		var frame []byte
		if n := testing.AllocsPerRun(50, func() {
			if frame, err = plan.FountainFrame(seed, 0, seq); err != nil {
				t.Fatal(err)
			}
		}); n != 1 {
			t.Errorf("FountainFrame(seq %d) allocates %v times, want 1", seq, n)
		}
		if len(frame) != cap(frame) {
			t.Errorf("FountainFrame(seq %d): len %d, cap %d; the buffer was not sized up front", seq, len(frame), cap(frame))
		}
	}
}

// TestFountainWeightsConsistency pins that the weights computed from a
// plan's own layout and from the JSON-round-tripped layout a client
// receives are identical: the accrual scores cross the wire bit-exact.
func TestFountainWeightsConsistency(t *testing.T) {
	doc, scores := paperShapedDoc(t)
	plan, err := NewPlanWithScores(doc, scores, Config{LOD: 4})
	if err != nil {
		t.Fatal(err)
	}
	layout := plan.FountainLayout(11)
	blob, err := json.Marshal(layout)
	if err != nil {
		t.Fatal(err)
	}
	var loaded Layout
	if err := json.Unmarshal(blob, &loaded); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < plan.Generations(); g++ {
		a, err := layout.FountainWeights(g)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.FountainWeights(g)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("gen %d: %d vs %d weights", g, len(a), len(b))
		}
		sum := 0.0
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("gen %d weight %d: %v != %v after JSON roundtrip", g, i, a[i], b[i])
			}
			sum += a[i]
		}
		if sum <= 0 {
			t.Fatalf("gen %d: weights sum %v, want > 0", g, sum)
		}
	}
}

// TestFountainEncoderStateBoundedBySeeds is the regression test for a
// remotely growable cache: the stream seed is client-chosen and plans are
// shared and long-lived, so what a plan retains per fountain stream must
// not scale with the seeds it has served — while every (seed, gen, seq)
// still cooks to the same bytes whichever seeds came before it.
func TestFountainEncoderStateBoundedBySeeds(t *testing.T) {
	doc, scores := paperShapedDoc(t)
	plan, err := NewPlanWithScores(doc, scores, Config{LOD: 4, MaxGeneration: 8})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Generations() < 2 {
		t.Fatalf("want a multi-generation plan, got %d", plan.Generations())
	}
	fresh, err := NewPlanWithScores(doc, scores, Config{LOD: 4, MaxGeneration: 8})
	if err != nil {
		t.Fatal(err)
	}
	built := make([]*fountain.Encoder, plan.Generations())
	for g, gen := range plan.gens {
		built[g] = gen.fenc
	}
	for fetch := 0; fetch < 1000; fetch++ {
		seed := uint64(fetch)*0x9e3779b97f4a7c15 + 1
		for g := 0; g < plan.Generations(); g++ {
			if _, err := plan.FountainFrame(seed, g, fetch%7); err != nil {
				t.Fatal(err)
			}
		}
	}
	for g, gen := range plan.gens {
		if gen.fenc != built[g] {
			t.Fatalf("gen %d: the plan's fountain encoder changed after 1000 seeds; newPlan's one per generation must serve them all", g)
		}
	}
	for _, seed := range []uint64{1, 0x0dd5eed} {
		for g := 0; g < plan.Generations(); g++ {
			a, err := plan.FountainFrame(seed, g, 5)
			if err != nil {
				t.Fatal(err)
			}
			b, err := fresh.FountainFrame(seed, g, 5)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("seed %#x gen %d: frame depends on the seeds served before it", seed, g)
			}
		}
	}
}

// TestReceiverNeeded pins the count a fountain client sizes its grants
// by: M less what each undecoded generation holds, nothing for a decoded
// one, and Plan.Shape agrees with the layout it is read beside.
func TestReceiverNeeded(t *testing.T) {
	doc, scores := paperShapedDoc(t)
	plan, err := NewPlanWithScores(doc, scores, Config{LOD: 4, MaxGeneration: 8})
	if err != nil {
		t.Fatal(err)
	}
	for g, shape := range plan.Layout().Shapes {
		if plan.Shape(g) != shape {
			t.Fatalf("Shape(%d) = %+v, layout says %+v", g, plan.Shape(g), shape)
		}
	}
	const seed = 3
	rcv, err := NewReceiverFromLayout(plan.FountainLayout(seed))
	if err != nil {
		t.Fatal(err)
	}
	if got := rcv.Needed(); got != plan.M() {
		t.Fatalf("empty receiver needs %d, want M = %d", got, plan.M())
	}
	m0 := plan.Shape(0).M
	for seq := 0; seq < m0; seq++ {
		for range 2 { // a duplicate changes nothing
			frame, err := plan.FountainFrame(seed, 0, seq)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := rcv.AddFrame(frame); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := rcv.Needed(), plan.M()-seq-1; got != want {
			t.Fatalf("after %d sources of generation 0: needs %d, want %d", seq+1, got, want)
		}
	}
	fountainFetch(t, plan, rcv, seed, rand.New(rand.NewSource(2)), 0.3)
	if got := rcv.Needed(); got != 0 {
		t.Fatalf("reconstructible receiver needs %d", got)
	}
}
