package core

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"mobweb/internal/content"
	"mobweb/internal/document"
	"mobweb/internal/packet"
	"mobweb/internal/textproc"
)

// paperShapedDoc builds the simulation document of Table 2: 5 sections ×
// 2 subsections × 2 paragraphs, 10240 bytes total, with paragraph scores
// assigned by the caller.
func paperShapedDoc(t testing.TB) (*document.Document, map[int]float64) {
	t.Helper()
	const paragraphs = 20
	const paraBytes = 10240 / paragraphs // 512 bytes per paragraph extent
	b := document.NewBuilder()
	for s := 0; s < 5; s++ {
		b.Open(document.LODSection, "", "")
		for ss := 0; ss < 2; ss++ {
			b.Open(document.LODSubsection, "", "")
			for p := 0; p < 2; p++ {
				// Text length paraBytes-1; layout adds one separator byte.
				text := strings.Repeat("x", paraBytes-1)
				b.Paragraph(text)
			}
			b.Close()
		}
		b.Close()
	}
	doc, err := b.Build("sim-doc", "Synthetic")
	if err != nil {
		t.Fatal(err)
	}
	if doc.Size() != 10240 {
		t.Fatalf("synthetic doc size = %d, want 10240", doc.Size())
	}
	// Skewed scores: paragraph i gets score proportional to i+1.
	scores := make(map[int]float64)
	paras := doc.Paragraphs()
	total := 0.0
	for i := range paras {
		total += float64(i + 1)
	}
	for i, p := range paras {
		scores[p.ID] = float64(i+1) / total
	}
	// Propagate to ancestors so any LOD has scores.
	var fill func(u *document.Unit) float64
	fill = func(u *document.Unit) float64 {
		if u.IsLeaf() {
			return scores[u.ID]
		}
		sum := 0.0
		for _, c := range u.Children {
			sum += fill(c)
		}
		scores[u.ID] = sum
		return sum
	}
	fill(doc.Root)
	return doc, scores
}

func TestPlanPaperDefaults(t *testing.T) {
	doc, scores := paperShapedDoc(t)
	plan, err := NewPlanWithScores(doc, scores, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.M() != 40 {
		t.Errorf("M = %d, want 40 (10240 bytes / 256)", plan.M())
	}
	if plan.N() != 60 {
		t.Errorf("N = %d, want 60 (γ = 1.5)", plan.N())
	}
	if plan.Generations() != 1 {
		t.Errorf("generations = %d, want 1", plan.Generations())
	}
	if got := plan.Config().LOD; got != document.LODDocument {
		t.Errorf("default LOD = %v, want document", got)
	}
}

func TestPlanConfigValidation(t *testing.T) {
	doc, scores := paperShapedDoc(t)
	if _, err := NewPlanWithScores(doc, scores, Config{Gamma: 0.5}); err == nil {
		t.Error("gamma < 1 accepted")
	}
	if _, err := NewPlanWithScores(doc, scores, Config{PacketSize: -1}); err == nil {
		t.Error("negative packet size accepted")
	}
	if _, err := NewPlanWithScores(doc, scores, Config{LOD: document.LOD(9)}); err == nil {
		t.Error("invalid LOD accepted")
	}
	if _, err := NewPlanWithScores(nil, scores, Config{}); err == nil {
		t.Error("nil document accepted")
	}
}

func TestPlanRanksByScoreDescending(t *testing.T) {
	doc, scores := paperShapedDoc(t)
	plan, err := NewPlanWithScores(doc, scores, Config{LOD: document.LODParagraph})
	if err != nil {
		t.Fatal(err)
	}
	segs := plan.Segments()
	if len(segs) != 20 {
		t.Fatalf("got %d segments, want 20 paragraphs", len(segs))
	}
	for i := 1; i < len(segs); i++ {
		if segs[i].Score > segs[i-1].Score+1e-12 {
			t.Errorf("segment %d score %v above predecessor %v", i, segs[i].Score, segs[i-1].Score)
		}
	}
	// Scores are normalized to sum 1.
	sum := 0.0
	for _, s := range segs {
		sum += s.Score
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("segment scores sum to %v, want 1", sum)
	}
}

func TestPlanPermutationCoversBody(t *testing.T) {
	doc, scores := paperShapedDoc(t)
	for _, lod := range document.AllLODs() {
		plan, err := NewPlanWithScores(doc, scores, Config{LOD: lod})
		if err != nil {
			t.Fatalf("%v: %v", lod, err)
		}
		covered := 0
		for _, seg := range plan.Segments() {
			covered += seg.Length
		}
		if covered != doc.Size() {
			t.Errorf("%v: segments cover %d of %d bytes", lod, covered, doc.Size())
		}
	}
}

func TestClearTextPrefixMatchesPermutedStream(t *testing.T) {
	doc, scores := paperShapedDoc(t)
	plan, err := NewPlanWithScores(doc, scores, Config{LOD: document.LODParagraph})
	if err != nil {
		t.Fatal(err)
	}
	// The first M cooked packets must spell out the permuted stream:
	// highest-score paragraph first.
	var stream []byte
	for seq := 0; seq < plan.M(); seq++ {
		payload, err := plan.CookedPayload(seq)
		if err != nil {
			t.Fatal(err)
		}
		stream = append(stream, payload...)
	}
	segs := plan.Segments()
	first := segs[0]
	got := string(stream[first.PermutedOff : first.PermutedOff+first.Length])
	want := string(doc.Body()[first.OrigOff : first.OrigOff+first.Length])
	if got != want {
		t.Error("clear-text prefix does not carry the top-ranked unit's bytes")
	}
}

func TestReceiverReconstructFromClearText(t *testing.T) {
	doc, scores := paperShapedDoc(t)
	plan, err := NewPlanWithScores(doc, scores, Config{LOD: document.LODSection})
	if err != nil {
		t.Fatal(err)
	}
	rcv, err := NewReceiver(plan)
	if err != nil {
		t.Fatal(err)
	}
	for seq := 0; seq < plan.M(); seq++ {
		payload, err := plan.CookedPayload(seq)
		if err != nil {
			t.Fatal(err)
		}
		if err := rcv.Add(seq, payload); err != nil {
			t.Fatal(err)
		}
	}
	if !rcv.Reconstructible() {
		t.Fatal("M clear packets but not reconstructible")
	}
	body, err := rcv.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, doc.Body()) {
		t.Error("reconstructed body differs from original")
	}
	if got := rcv.InfoContent(); math.Abs(got-1) > 1e-9 {
		t.Errorf("InfoContent = %v, want 1 after full reconstruction", got)
	}
}

func TestReceiverReconstructFromRandomSubset(t *testing.T) {
	doc, scores := paperShapedDoc(t)
	plan, err := NewPlanWithScores(doc, scores, Config{LOD: document.LODParagraph})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		rcv, err := NewReceiver(plan)
		if err != nil {
			t.Fatal(err)
		}
		perm := rng.Perm(plan.N())
		for _, seq := range perm[:plan.M()] {
			payload, err := plan.CookedPayload(seq)
			if err != nil {
				t.Fatal(err)
			}
			if err := rcv.Add(seq, payload); err != nil {
				t.Fatal(err)
			}
		}
		body, err := rcv.Reconstruct()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !bytes.Equal(body, doc.Body()) {
			t.Fatalf("trial %d: body mismatch", trial)
		}
	}
}

func TestReceiverNotReconstructible(t *testing.T) {
	doc, scores := paperShapedDoc(t)
	plan, err := NewPlanWithScores(doc, scores, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rcv, err := NewReceiver(plan)
	if err != nil {
		t.Fatal(err)
	}
	for seq := 0; seq < plan.M()-1; seq++ {
		payload, _ := plan.CookedPayload(seq)
		if err := rcv.Add(seq, payload); err != nil {
			t.Fatal(err)
		}
	}
	if rcv.Reconstructible() {
		t.Error("M-1 packets reported reconstructible")
	}
	if _, err := rcv.Reconstruct(); err == nil {
		t.Error("Reconstruct succeeded with M-1 packets")
	}
}

func TestInfoContentAccruesHighScoreFirst(t *testing.T) {
	doc, scores := paperShapedDoc(t)
	plan, err := NewPlanWithScores(doc, scores, Config{LOD: document.LODParagraph})
	if err != nil {
		t.Fatal(err)
	}
	rcv, err := NewReceiver(plan)
	if err != nil {
		t.Fatal(err)
	}
	if got := rcv.InfoContent(); got != 0 {
		t.Fatalf("fresh receiver IC = %v, want 0", got)
	}
	// Feed clear-text packets in transmission order; IC must be
	// monotone and hit the top-ranked unit's score once its packets are
	// in (each 512-byte paragraph spans two 256-byte packets).
	payload0, _ := plan.CookedPayload(0)
	if err := rcv.Add(0, payload0); err != nil {
		t.Fatal(err)
	}
	if got := rcv.InfoContent(); got != 0 {
		t.Errorf("IC after half a paragraph = %v, want 0 (units accrue whole)", got)
	}
	payload1, _ := plan.CookedPayload(1)
	if err := rcv.Add(1, payload1); err != nil {
		t.Fatal(err)
	}
	top := plan.Segments()[0].Score
	if got := rcv.InfoContent(); math.Abs(got-top) > 1e-9 {
		t.Errorf("IC after top paragraph = %v, want %v", got, top)
	}
	prev := rcv.InfoContent()
	for seq := 2; seq < plan.M(); seq++ {
		payload, _ := plan.CookedPayload(seq)
		if err := rcv.Add(seq, payload); err != nil {
			t.Fatal(err)
		}
		cur := rcv.InfoContent()
		if cur+1e-12 < prev {
			t.Fatalf("IC decreased at packet %d: %v → %v", seq, prev, cur)
		}
		prev = cur
	}
	if math.Abs(prev-1) > 1e-9 {
		t.Errorf("IC after all clear packets = %v, want 1", prev)
	}
}

func TestRedundancyPacketsDoNotAccrueICUntilDecode(t *testing.T) {
	doc, scores := paperShapedDoc(t)
	// γ = 2.5 gives 60 redundancy packets, enough to hold M-1 = 39 of
	// them without touching clear text.
	plan, err := NewPlanWithScores(doc, scores, Config{LOD: document.LODParagraph, Gamma: 2.5})
	if err != nil {
		t.Fatal(err)
	}
	rcv, err := NewReceiver(plan)
	if err != nil {
		t.Fatal(err)
	}
	// Add M-1 redundancy packets: IC stays 0.
	for seq := plan.M(); seq < plan.M()+plan.M()-1 && seq < plan.N(); seq++ {
		payload, _ := plan.CookedPayload(seq)
		if err := rcv.Add(seq, payload); err != nil {
			t.Fatal(err)
		}
	}
	if got := rcv.InfoContent(); got != 0 {
		t.Errorf("IC from redundancy-only packets = %v, want 0", got)
	}
	// One more distinct packet reaches M → everything decodable → IC 1.
	payload, _ := plan.CookedPayload(0)
	if err := rcv.Add(0, payload); err != nil {
		t.Fatal(err)
	}
	if got := rcv.InfoContent(); math.Abs(got-1) > 1e-9 {
		t.Errorf("IC after reaching M packets = %v, want 1", got)
	}
}

func TestReceiverResetIsNoCaching(t *testing.T) {
	doc, scores := paperShapedDoc(t)
	plan, err := NewPlanWithScores(doc, scores, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rcv, err := NewReceiver(plan)
	if err != nil {
		t.Fatal(err)
	}
	for seq := 0; seq < 10; seq++ {
		payload, _ := plan.CookedPayload(seq)
		if err := rcv.Add(seq, payload); err != nil {
			t.Fatal(err)
		}
	}
	if rcv.IntactCount() != 10 {
		t.Fatalf("IntactCount = %d, want 10", rcv.IntactCount())
	}
	rcv.Reset()
	if rcv.IntactCount() != 0 {
		t.Errorf("IntactCount after Reset = %d, want 0", rcv.IntactCount())
	}
}

func TestAddFrameRoundTrip(t *testing.T) {
	doc, scores := paperShapedDoc(t)
	plan, err := NewPlanWithScores(doc, scores, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rcv, err := NewReceiver(plan)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := plan.Frame(5)
	if err != nil {
		t.Fatal(err)
	}
	seq, intact, err := rcv.AddFrame(frame)
	if err != nil || !intact || seq != 5 {
		t.Fatalf("AddFrame = (%d, %v, %v), want (5, true, nil)", seq, intact, err)
	}
	// Corrupt a frame: must be rejected without error.
	frame2, err := plan.Frame(6)
	if err != nil {
		t.Fatal(err)
	}
	packet.CorruptFrame(frame2, 12345)
	_, intact, err = rcv.AddFrame(frame2)
	if err != nil {
		t.Fatal(err)
	}
	if intact {
		t.Error("corrupted frame accepted as intact")
	}
	if rcv.IntactCount() != 1 {
		t.Errorf("IntactCount = %d, want 1", rcv.IntactCount())
	}
}

func TestAddValidation(t *testing.T) {
	doc, scores := paperShapedDoc(t)
	plan, err := NewPlanWithScores(doc, scores, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rcv, err := NewReceiver(plan)
	if err != nil {
		t.Fatal(err)
	}
	if err := rcv.Add(-1, make([]byte, 256)); err == nil {
		t.Error("negative seq accepted")
	}
	if err := rcv.Add(plan.N(), make([]byte, 256)); err == nil {
		t.Error("out-of-range seq accepted")
	}
	if err := rcv.Add(0, make([]byte, 255)); err == nil {
		t.Error("wrong payload size accepted")
	}
	// Duplicate adds are idempotent.
	payload, _ := plan.CookedPayload(0)
	if err := rcv.Add(0, payload); err != nil {
		t.Fatal(err)
	}
	if err := rcv.Add(0, payload); err != nil {
		t.Errorf("duplicate add errored: %v", err)
	}
	if rcv.IntactCount() != 1 {
		t.Errorf("IntactCount = %d after duplicate, want 1", rcv.IntactCount())
	}
}

func TestMultipleGenerations(t *testing.T) {
	doc, scores := paperShapedDoc(t)
	// Force tiny generations: 10240/256 = 40 raw packets, 8 per group →
	// 5 generations.
	plan, err := NewPlanWithScores(doc, scores, Config{MaxGeneration: 8})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Generations() != 5 {
		t.Fatalf("generations = %d, want 5", plan.Generations())
	}
	if plan.N() != 5*12 {
		t.Errorf("N = %d, want 60 (5 groups × 12)", plan.N())
	}
	rcv, err := NewReceiver(plan)
	if err != nil {
		t.Fatal(err)
	}
	// Fill all generations except the last: not reconstructible.
	for seq := 0; seq < plan.N()-12; seq++ {
		payload, _ := plan.CookedPayload(seq)
		if err := rcv.Add(seq, payload); err != nil {
			t.Fatal(err)
		}
	}
	if rcv.Reconstructible() {
		t.Error("reconstructible with an empty generation")
	}
	if !rcv.GenerationReconstructible(0) {
		t.Error("generation 0 not reconstructible despite all packets")
	}
	for seq := plan.N() - 12; seq < plan.N(); seq++ {
		payload, _ := plan.CookedPayload(seq)
		if err := rcv.Add(seq, payload); err != nil {
			t.Fatal(err)
		}
	}
	body, err := rcv.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, doc.Body()) {
		t.Error("multi-generation reconstruction mismatch")
	}
}

func TestUnitTextAndRender(t *testing.T) {
	doc, scores := paperShapedDoc(t)
	plan, err := NewPlanWithScores(doc, scores, Config{LOD: document.LODParagraph})
	if err != nil {
		t.Fatal(err)
	}
	rcv, err := NewReceiver(plan)
	if err != nil {
		t.Fatal(err)
	}
	// Deliver the top paragraph's two clear packets.
	for seq := 0; seq < 2; seq++ {
		payload, _ := plan.CookedPayload(seq)
		if err := rcv.Add(seq, payload); err != nil {
			t.Fatal(err)
		}
	}
	rendered := rcv.Render()
	if len(rendered) != 1 {
		t.Fatalf("rendered %d units, want 1", len(rendered))
	}
	top := plan.Layout().Accrual[0]
	wantText := string(doc.Body()[top.OrigOff : top.OrigOff+top.Length])
	if rendered[0].Text != wantText {
		t.Error("rendered text differs from the unit's bytes")
	}
	if _, ok := rcv.UnitText(plan.Layout().Accrual[5]); ok {
		t.Error("UnitText returned text for an unavailable unit")
	}
}

func TestNewPlanFromSC(t *testing.T) {
	// End-to-end over a real parsed document: rank paragraphs by QIC and
	// verify the top segment matches the query-heavy unit.
	b := document.NewBuilder()
	b.Open(document.LODSection, "", "One")
	b.Paragraph("mobile web browsing mobile web browsing mobile web")
	b.Open(document.LODSection, "", "Two")
	b.Paragraph("vandermonde dispersal matrices and polynomial codes")
	doc, err := b.Build("t", "")
	if err != nil {
		t.Fatal(err)
	}
	idx, err := textproc.BuildIndex(doc, textproc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := content.Build(doc, idx)
	if err != nil {
		t.Fatal(err)
	}
	q := textproc.QueryVector("mobile web browsing")
	plan, err := NewPlan(sc, q, Config{
		LOD:        document.LODParagraph,
		Notion:     content.NotionQIC,
		PacketSize: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	top := plan.Segments()[0]
	text := string(doc.Body()[top.OrigOff : top.OrigOff+top.Length])
	if !strings.Contains(text, "mobile") {
		t.Errorf("top-ranked unit %q is not the query-relevant paragraph", text)
	}
	if _, err := NewPlan(nil, nil, Config{}); err == nil {
		t.Error("nil SC accepted")
	}
}

func TestChooseCookedAndGammaFor(t *testing.T) {
	n, err := ChooseCooked(40, 0.1, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if n < 40 || n > 60 {
		t.Errorf("ChooseCooked(40, 0.1, 0.95) = %d, outside plausible [40, 60]", n)
	}
	g, err := GammaFor(40, 0.1, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if g < 1 || g > 1.5 {
		t.Errorf("GammaFor = %v, outside plausible [1, 1.5]", g)
	}
	if _, err := ChooseCooked(200, 0.5, 0.99); err == nil {
		t.Error("infeasible N accepted")
	}
}

func TestFrameSeqRoundTrip(t *testing.T) {
	doc, scores := paperShapedDoc(t)
	plan, err := NewPlanWithScores(doc, scores, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Frame(-1); err == nil {
		t.Error("negative frame seq accepted")
	}
	if _, err := plan.Frame(plan.N()); err == nil {
		t.Error("out-of-range frame seq accepted")
	}
	frame, err := plan.Frame(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) != plan.Config().FrameSize() {
		t.Errorf("frame size %d, want %d", len(frame), plan.Config().FrameSize())
	}
}

func BenchmarkPlanBuild(b *testing.B) {
	doc, scores := paperShapedDoc(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewPlanWithScores(doc, scores, Config{LOD: document.LODParagraph}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReceiverInfoContent(b *testing.B) {
	doc, scores := paperShapedDoc(b)
	plan, err := NewPlanWithScores(doc, scores, Config{LOD: document.LODParagraph})
	if err != nil {
		b.Fatal(err)
	}
	rcv, err := NewReceiver(plan)
	if err != nil {
		b.Fatal(err)
	}
	for seq := 0; seq < plan.M()/2; seq++ {
		payload, _ := plan.CookedPayload(seq)
		if err := rcv.Add(seq, payload); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rcv.InfoContent()
	}
}
