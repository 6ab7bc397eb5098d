package sim

import (
	"math"
	"testing"

	"mobweb/internal/document"
)

// fastParams shrinks the session so unit tests stay quick while keeping
// Table 2's per-document parameters intact.
func fastParams() Params {
	p := DefaultParams()
	p.Documents = 30
	p.Repetitions = 3
	p.MaxRounds = 30
	return p
}

func TestDefaultParamsMatchTable2(t *testing.T) {
	p := DefaultParams()
	if p.PacketSize != 256 || p.Doc.SizeBytes != 10240 || p.Gamma != 1.5 {
		t.Errorf("defaults %+v do not match Table 2", p)
	}
	if p.BandwidthBPS != 19200 || p.Doc.Skew != 3 || p.Irrelevant != 0.5 ||
		p.Threshold != 0.5 || p.Alpha != 0.1 {
		t.Errorf("defaults %+v do not match Table 2", p)
	}
	if p.Documents != 200 || p.Repetitions != 50 {
		t.Errorf("session shape %d docs × %d reps, want 200 × 50", p.Documents, p.Repetitions)
	}
}

func TestValidation(t *testing.T) {
	mutations := map[string]func(*Params){
		"packet size":    func(p *Params) { p.PacketSize = 0 },
		"gamma":          func(p *Params) { p.Gamma = 0.9 },
		"alpha high":     func(p *Params) { p.Alpha = 1 },
		"alpha negative": func(p *Params) { p.Alpha = -0.1 },
		"irrelevant":     func(p *Params) { p.Irrelevant = 1.5 },
		"threshold":      func(p *Params) { p.Threshold = -0.2 },
		"lod":            func(p *Params) { p.LOD = document.LOD(99) },
		"documents":      func(p *Params) { p.Documents = 0 },
		"repetitions":    func(p *Params) { p.Repetitions = 0 },
		"doc spec":       func(p *Params) { p.Doc.Skew = 0 },
	}
	for name, mutate := range mutations {
		p := fastParams()
		mutate(&p)
		if _, err := Run(p); err == nil {
			t.Errorf("%s: invalid params accepted", name)
		}
	}
}

func TestPerfectChannelResponseTime(t *testing.T) {
	// With α = 0 and all documents relevant, a document completes after
	// exactly M intact packets: 40 × 260 B × 8 / 19200 bps = 4.333 s.
	p := fastParams()
	p.Alpha = 0
	p.Irrelevant = 0
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	want := 40.0 * 260 * 8 / 19200
	if math.Abs(res.MeanResponseTime-want) > 0.01 {
		t.Errorf("mean response = %v s, want %v s", res.MeanResponseTime, want)
	}
	if res.StallRate != 0 {
		t.Errorf("stall rate %v on a perfect channel", res.StallRate)
	}
	if res.MeanRounds != 1 {
		t.Errorf("mean rounds = %v, want 1", res.MeanRounds)
	}
	if res.StdDev != 0 {
		t.Errorf("stddev = %v on a deterministic run, want 0", res.StdDev)
	}
}

// seededRuns is how often a seeded run repeats in one process before its
// result counts as reproducible: two runs alone can miss a map-order
// leak, because a small map's two iteration orders agree by chance.
const seededRuns = 3

// TestDeterministicBySeed repeats seeded runs with and without the
// retransmission cache, and fails unless every repeat equals the first.
func TestDeterministicBySeed(t *testing.T) {
	p := fastParams()
	p.Alpha = 0.3
	var a Result
	for _, caching := range []bool{true, false} {
		p.Caching = caching
		first, err := Run(p)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < seededRuns; i++ {
			again, err := Run(p)
			if err != nil {
				t.Fatal(err)
			}
			if again != first {
				t.Errorf("caching %v: run %d of one seed gave %+v, run 0 %+v", caching, i, again, first)
			}
		}
		a = first
	}
	p.Seed = 999
	c, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if c.MeanResponseTime == a.MeanResponseTime {
		t.Error("different seeds gave identical mean response times")
	}
}

func TestCachingBeatsNoCachingAtHighAlpha(t *testing.T) {
	// Figure 4's headline: at α = 0.4 the cache cuts response times
	// drastically.
	p := fastParams()
	p.Alpha = 0.4
	p.Irrelevant = 0
	noCache, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	p.Caching = true
	withCache, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if withCache.MeanResponseTime >= noCache.MeanResponseTime {
		t.Errorf("caching %v s not below nocaching %v s at α=0.4",
			withCache.MeanResponseTime, noCache.MeanResponseTime)
	}
	if noCache.MeanResponseTime < 2*withCache.MeanResponseTime {
		t.Errorf("caching advantage only %.1fx at α=0.4, expected drastic",
			noCache.MeanResponseTime/withCache.MeanResponseTime)
	}
}

func TestCachingIrrelevantAtLowAlpha(t *testing.T) {
	// At α = 0.1 with γ = 1.5 stalls are rare, so the cache barely
	// matters — "the amount of irrelevant documents is not playing such
	// an important role" contrast of Figure 4's first column.
	p := fastParams()
	p.Alpha = 0.1
	p.Irrelevant = 0
	noCache, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	p.Caching = true
	withCache, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	ratio := noCache.MeanResponseTime / withCache.MeanResponseTime
	if ratio > 1.3 {
		t.Errorf("cache changed response by %.2fx at α=0.1; expected marginal", ratio)
	}
}

func TestResponseDecreasesWithIrrelevant(t *testing.T) {
	// Figure 5 top row: more irrelevant documents → faster sessions,
	// roughly linearly.
	p := fastParams()
	p.Caching = true
	p.Alpha = 0.2
	var prev float64 = math.Inf(1)
	for _, irr := range []float64{0, 0.5, 1} {
		p.Irrelevant = irr
		res, err := Run(p)
		if err != nil {
			t.Fatal(err)
		}
		if res.MeanResponseTime >= prev {
			t.Errorf("I=%v: response %v s not below previous %v s", irr, res.MeanResponseTime, prev)
		}
		prev = res.MeanResponseTime
	}
}

func TestResponseIncreasesWithThreshold(t *testing.T) {
	// Figure 5 bottom row: larger F → later discovery → slower, with
	// F=0 artificial (zero-cost discard for irrelevant docs).
	p := fastParams()
	p.Caching = true
	p.Irrelevant = 1
	p.Alpha = 0.2
	var prev float64 = -1
	for _, f := range []float64{0, 0.2, 0.5, 0.8, 1} {
		p.Threshold = f
		res, err := Run(p)
		if err != nil {
			t.Fatal(err)
		}
		if res.MeanResponseTime < prev-1e-9 {
			t.Errorf("F=%v: response %v s below previous %v s", f, res.MeanResponseTime, prev)
		}
		prev = res.MeanResponseTime
	}
	// F = 0 must cost nothing.
	p.Threshold = 0
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanResponseTime != 0 {
		t.Errorf("F=0 response = %v s, want 0", res.MeanResponseTime)
	}
}

func TestParagraphLODImproves(t *testing.T) {
	// Figure 6: with all documents irrelevant and a modest F, the
	// paragraph LOD beats the document LOD.
	p := fastParams()
	p.Caching = true
	p.Irrelevant = 1
	p.Threshold = 0.2
	p.Alpha = 0.1
	imp, err := Improvement(p, document.LODParagraph)
	if err != nil {
		t.Fatal(err)
	}
	if imp <= 1.05 {
		t.Errorf("paragraph-LOD improvement = %v, want > 1.05", imp)
	}
}

func TestImprovementGrowsWithSkew(t *testing.T) {
	// Figure 7: a more skewed information-content distribution gives
	// multi-resolution transmission more to exploit.
	p := fastParams()
	p.Caching = true
	p.Irrelevant = 1
	p.Threshold = 0.2
	p.Alpha = 0.1
	p.Doc.Skew = 1.01
	low, err := Improvement(p, document.LODParagraph)
	if err != nil {
		t.Fatal(err)
	}
	p.Doc.Skew = 5
	high, err := Improvement(p, document.LODParagraph)
	if err != nil {
		t.Fatal(err)
	}
	if high <= low {
		t.Errorf("improvement at δ=5 (%v) not above δ≈1 (%v)", high, low)
	}
}

func TestStallRateRisesWithAlpha(t *testing.T) {
	p := fastParams()
	p.Irrelevant = 0
	p.Alpha = 0.1
	low, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	p.Alpha = 0.4
	high, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if high.StallRate <= low.StallRate {
		t.Errorf("stall rate at α=0.4 (%v) not above α=0.1 (%v)", high.StallRate, low.StallRate)
	}
}

func TestGammaReducesStalls(t *testing.T) {
	// Figure 4: raising γ buys reliability.
	p := fastParams()
	p.Irrelevant = 0
	p.Alpha = 0.3
	p.Gamma = 1.1
	tight, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	p.Gamma = 2.0
	loose, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if loose.StallRate >= tight.StallRate {
		t.Errorf("stall rate at γ=2.0 (%v) not below γ=1.1 (%v)", loose.StallRate, tight.StallRate)
	}
}

func TestCappedDocsReported(t *testing.T) {
	// NoCaching at α=0.5 with γ=1.1 practically never completes: the cap
	// must kick in and be reported.
	p := fastParams()
	p.Documents = 3
	p.Repetitions = 1
	p.MaxRounds = 3
	p.Alpha = 0.5
	p.Gamma = 1.1
	p.Irrelevant = 0
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.CappedDocs == 0 {
		t.Error("no capped documents despite a hopeless configuration")
	}
}

func BenchmarkSessionDefault(b *testing.B) {
	p := DefaultParams()
	p.Documents = 20
	p.Repetitions = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(p); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBandwidthAndPacketSizeReachTheChannel: B and sp are Table 2
// parameters. Doubling B halves every transmission on the same channel
// realisation, and halving sp doubles the packets a document needs.
func TestBandwidthAndPacketSizeReachTheChannel(t *testing.T) {
	base, err := Run(fastParams())
	if err != nil {
		t.Fatal(err)
	}
	fast := fastParams()
	fast.BandwidthBPS *= 2
	r, err := Run(fast)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(2*r.MeanResponseTime-base.MeanResponseTime) > 1e-3*base.MeanResponseTime { // nanosecond rounding per frame
		t.Errorf("response %.4f s at 2B, %.4f s at B; want half", r.MeanResponseTime, base.MeanResponseTime)
	}
	small := fastParams()
	small.PacketSize = 128
	if r, err = Run(small); err != nil {
		t.Fatal(err)
	}
	if r.PacketsPerDoc < 1.8*base.PacketsPerDoc {
		t.Errorf("%.1f packets per document at sp 128, %.1f at 256; want about twice", r.PacketsPerDoc, base.PacketsPerDoc)
	}
}
