package mobweb

// One benchmark per table and figure of the paper (see DESIGN.md §4),
// plus ablation benches for the design choices DESIGN.md §5 calls out.
// The figure benches run the same code paths as cmd/mrtfigures at a
// reduced simulation scale and surface a headline number from each
// artifact through b.ReportMetric, so `go test -bench=.` doubles as a
// sanity dashboard for the reproduction.

import (
	"math/rand"
	"strconv"
	"testing"

	"mobweb/internal/content"
	"mobweb/internal/core"
	"mobweb/internal/corpus"
	"mobweb/internal/document"
	"mobweb/internal/erasure"
	"mobweb/internal/figures"
	"mobweb/internal/nbinom"
	"mobweb/internal/planner"
	"mobweb/internal/search"
	"mobweb/internal/sim"
	"mobweb/internal/textproc"
)

// benchScale keeps figure regeneration fast enough for -bench runs while
// preserving every qualitative shape.
func benchScale() figures.SimScale {
	return figures.SimScale{Documents: 20, Repetitions: 2, Seed: 1}
}

// BenchmarkTable1SCGeneration regenerates Table 1: the draft manuscript's
// per-unit IC/QIC/MQIC.
func BenchmarkTable1SCGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := figures.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) == 0 {
			b.Fatal("empty Table 1")
		}
	}
}

// BenchmarkTable2DefaultSession runs one browsing session at exactly
// Table 2's default parameters and reports its mean response time.
func BenchmarkTable2DefaultSession(b *testing.B) {
	p := sim.DefaultParams()
	p.Documents = 20
	p.Repetitions = 1
	var last sim.Result
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(p)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.MeanResponseTime, "respTime-s")
}

// BenchmarkFigure2MinCooked solves the negative-binomial tail inequality
// across Figure 2's full (M, α, S) grid.
func BenchmarkFigure2MinCooked(b *testing.B) {
	var n60 int
	for i := 0; i < b.N; i++ {
		for _, s := range []float64{0.95, 0.99} {
			fig, err := figures.Figure2(s)
			if err != nil {
				b.Fatal(err)
			}
			if s == 0.95 {
				n60 = int(fig.Series[0].Y[3]) // α=0.1, M=40
			}
		}
	}
	b.ReportMetric(float64(n60), "N(M=40,α=0.1,S=95%)")
}

// BenchmarkFigure3RedundancyRatio computes Figure 3's γ-versus-α curves.
func BenchmarkFigure3RedundancyRatio(b *testing.B) {
	var gamma float64
	for i := 0; i < b.N; i++ {
		fig, err := figures.Figure3()
		if err != nil {
			b.Fatal(err)
		}
		gamma = fig.Series[0].Y[2] // S=95%, M=50, α=0.3
	}
	b.ReportMetric(gamma, "γ(α=0.3,S=95%)")
}

// BenchmarkFigure4CachingVsNoCaching regenerates Figure 4's four panels
// and reports the caching speedup at α=0.4, γ=1.5.
func BenchmarkFigure4CachingVsNoCaching(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		figs, err := figures.Figure4(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		noCache := figs[0].Series[3] // α=0.4
		withCache := figs[1].Series[3]
		speedup = noCache.Y[2] / withCache.Y[2] // γ=1.5
	}
	b.ReportMetric(speedup, "caching-speedup(α=0.4,γ=1.5)")
}

// BenchmarkFigure5VaryIF regenerates Figure 5 and reports the F=0.5 vs
// F=0.1 response ratio under caching at α=0.1.
func BenchmarkFigure5VaryIF(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		figs, err := figures.Figure5(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		s := figs[3].Series[0] // Caching, varying F, α=0.1
		ratio = s.Y[5] / s.Y[1]
	}
	b.ReportMetric(ratio, "respTime(F=0.5)/respTime(F=0.1)")
}

// BenchmarkFigure6LODImprovement regenerates Figure 6 and reports the
// paragraph-LOD improvement at F=0.2, α=0.1.
func BenchmarkFigure6LODImprovement(b *testing.B) {
	var improvement float64
	for i := 0; i < b.N; i++ {
		figs, err := figures.Figure6(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range figs[0].Series {
			if s.Label == "paragraph" {
				improvement = s.Y[1]
			}
		}
	}
	b.ReportMetric(improvement, "paragraph-improvement(F=0.2)")
}

// BenchmarkFigure7SkewImpact regenerates Figure 7 and reports the gain in
// peak paragraph improvement from δ=2 to δ=5.
func BenchmarkFigure7SkewImpact(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		figs, err := figures.Figure7(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		peak := func(f figures.Figure) float64 {
			best := 0.0
			for _, s := range f.Series {
				if s.Label != "paragraph" {
					continue
				}
				for _, y := range s.Y {
					if y > best {
						best = y
					}
				}
			}
			return best
		}
		gain = peak(figs[3]) - peak(figs[0])
	}
	b.ReportMetric(gain, "peak-improvement(δ=5)-(δ=2)")
}

// BenchmarkAblationSystematic contrasts decode cost with and without the
// clear-text prefix: decoding from the systematic prefix is a copy, while
// decoding from redundancy packets requires a matrix inversion — the
// "saving recovering effort" the Vandermonde modification buys (§4.1).
func BenchmarkAblationSystematic(b *testing.B) {
	coder, err := erasure.NewCoder(40, 80)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	raw := make([][]byte, 40)
	for i := range raw {
		raw[i] = make([]byte, 256)
		rng.Read(raw[i])
	}
	cooked, err := coder.Encode(raw)
	if err != nil {
		b.Fatal(err)
	}
	clear := make([]erasure.Received, 40)
	redundant := make([]erasure.Received, 40)
	for i := 0; i < 40; i++ {
		clear[i] = erasure.Received{Index: i, Data: cooked[i]}
		redundant[i] = erasure.Received{Index: 40 + i, Data: cooked[40+i]}
	}
	b.Run("clear-prefix", func(b *testing.B) {
		b.SetBytes(40 * 256)
		for i := 0; i < b.N; i++ {
			if _, err := coder.Decode(clear); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("redundancy-only", func(b *testing.B) {
		b.SetBytes(40 * 256)
		for i := 0; i < b.N; i++ {
			if _, err := coder.Decode(redundant); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationContentNotions contrasts the three ranking notions on
// the draft manuscript: plan-building cost per notion, plus how much of
// the query-relevant (QIC) mass each ordering packs into the first
// quarter of the stream — the quantity that drives early relevance
// judgment.
func BenchmarkAblationContentNotions(b *testing.B) {
	doc, err := corpus.Load(corpus.DraftName)
	if err != nil {
		b.Fatal(err)
	}
	idx, err := textproc.BuildIndex(doc, textproc.Options{})
	if err != nil {
		b.Fatal(err)
	}
	sc, err := content.Build(doc, idx)
	if err != nil {
		b.Fatal(err)
	}
	q := textproc.QueryVector("browsing mobile web")
	qicScores := sc.Evaluate(q)

	for _, notion := range []content.Notion{content.NotionIC, content.NotionQIC, content.NotionMQIC} {
		b.Run(notion.String(), func(b *testing.B) {
			var plan *core.Plan
			for i := 0; i < b.N; i++ {
				var err error
				plan, err = core.NewPlan(sc, q, core.Config{
					LOD:    document.LODParagraph,
					Notion: notion,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			// QIC mass within the first quarter of the permuted stream.
			quarter := plan.BodySize() / 4
			mass, total := 0.0, 0.0
			for _, seg := range plan.Segments() {
				score := qicScores.QIC[seg.Unit.ID]
				total += score
				if seg.PermutedOff+seg.Length <= quarter {
					mass += score
				}
			}
			if total > 0 {
				b.ReportMetric(mass/total, "qicMassInFirstQuarter")
			}
		})
	}
}

// BenchmarkAblationNorm contrasts the paper's infinity-norm keyword
// weights with the L2 alternative: throughput plus the weight level of
// the most frequent keyword (1.0 under the infinity norm by
// construction).
func BenchmarkAblationNorm(b *testing.B) {
	doc, err := corpus.Load(corpus.DraftName)
	if err != nil {
		b.Fatal(err)
	}
	idx, err := textproc.BuildIndex(doc, textproc.Options{})
	if err != nil {
		b.Fatal(err)
	}
	occ := make(map[string]int, len(idx.Keywords()))
	for k, w := range idx.Keywords() {
		occ[w] = idx.Count(k)
	}
	minWeight := func(w map[string]float64) float64 {
		first := true
		m := 0.0
		for _, v := range w {
			if first || v < m {
				m = v
				first = false
			}
		}
		return m
	}
	b.Run("infinity", func(b *testing.B) {
		var w map[string]float64
		for i := 0; i < b.N; i++ {
			w = content.Weights(occ)
		}
		b.ReportMetric(minWeight(w), "minWeight")
	})
	b.Run("l2", func(b *testing.B) {
		var w map[string]float64
		for i := 0; i < b.N; i++ {
			w = content.WeightsL2(occ)
		}
		b.ReportMetric(minWeight(w), "minWeight")
	})
}

// BenchmarkAblationAdaptiveGamma contrasts a fixed redundancy ratio with
// the EWMA-adaptive policy of §4.2 under a drifting channel, reporting
// stalled rounds per 100 documents.
func BenchmarkAblationAdaptiveGamma(b *testing.B) {
	phases := []struct {
		alpha float64
		docs  int
	}{
		{0.05, 34}, {0.45, 33}, {0.10, 33},
	}
	const m = 40
	runPolicy := func(adaptive bool, seed int64) (stalls int) {
		rng := rand.New(rand.NewSource(seed))
		est, err := NewAlphaEstimator(0.25)
		if err != nil {
			b.Fatal(err)
		}
		chooseN := func() int {
			if !adaptive {
				return m * 3 / 2
			}
			alphaHat := est.ValueOr(0.1)
			if alphaHat > 0.9 {
				alphaHat = 0.9
			}
			n, err := nbinom.MinCooked(m, alphaHat, 0.95)
			if err != nil || n < m {
				return m * 3 / 2
			}
			return n
		}
		for _, ph := range phases {
			for d := 0; d < ph.docs; d++ {
				for {
					n := chooseN()
					intact, corrupted := 0, 0
					for i := 0; i < n; i++ {
						if rng.Float64() < ph.alpha {
							corrupted++
						} else {
							intact++
						}
					}
					est.ObserveWindow(corrupted, n)
					if intact >= m {
						break
					}
					stalls++
				}
			}
		}
		return stalls
	}
	b.Run("fixed", func(b *testing.B) {
		var stalls int
		for i := 0; i < b.N; i++ {
			stalls = runPolicy(false, int64(i))
		}
		b.ReportMetric(float64(stalls), "stalls/100docs")
	})
	b.Run("adaptive", func(b *testing.B) {
		var stalls int
		for i := 0; i < b.N; i++ {
			stalls = runPolicy(true, int64(i))
		}
		b.ReportMetric(float64(stalls), "stalls/100docs")
	})
}

// BenchmarkExtBaselineComparison runs the transfer-scheme comparison
// (extension experiment) and reports FT-MRT's speedup over the
// conventional sequential reload at α=0.3.
func BenchmarkExtBaselineComparison(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		tab, err := figures.ExtBaseline(5, 1)
		if err != nil {
			b.Fatal(err)
		}
		var seq, mrt float64
		for _, row := range tab.Rows {
			if row[1] != "0.3" {
				continue
			}
			v, err := strconv.ParseFloat(row[2], 64)
			if err != nil {
				b.Fatal(err)
			}
			switch row[0] {
			case "sequential-reload":
				seq = v
			case "ft-mrt":
				mrt = v
			}
		}
		speedup = seq / mrt
	}
	b.ReportMetric(speedup, "ftmrt-vs-sequential(α=0.3)")
}

// BenchmarkExtPrefetch runs the idle-time prefetching experiment and
// reports the response-time speedup at α=0.1.
func BenchmarkExtPrefetch(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		tab, err := figures.ExtPrefetch(figures.SimScale{Documents: 15, Repetitions: 1, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		off, err := strconv.ParseFloat(tab.Rows[0][1], 64)
		if err != nil {
			b.Fatal(err)
		}
		on, err := strconv.ParseFloat(tab.Rows[0][2], 64)
		if err != nil {
			b.Fatal(err)
		}
		speedup = off / on
	}
	b.ReportMetric(speedup, "prefetch-speedup(α=0.1)")
}

// BenchmarkExtBurst runs the Gilbert-Elliott extension and reports the
// bursty-over-iid response ratio for Caching at long-run α=0.3.
func BenchmarkExtBurst(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		tab, err := figures.ExtBurst(figures.SimScale{Documents: 15, Repetitions: 1, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		// Row 3: α=0.3, Caching.
		iid, err := strconv.ParseFloat(tab.Rows[3][2], 64)
		if err != nil {
			b.Fatal(err)
		}
		burst, err := strconv.ParseFloat(tab.Rows[3][3], 64)
		if err != nil {
			b.Fatal(err)
		}
		ratio = burst / iid
	}
	b.ReportMetric(ratio, "burst-vs-iid(Caching,α=0.3)")
}

// BenchmarkFetchCachedVsUncached measures the server-side cost of a
// second-round retransmission fetch — resolve the (doc, query, LOD,
// notion, γ) tuple again and take the frames the client is missing block
// by block, as the server's fixed-rate stream (transport's rowSource)
// does — with and without the planner's two caches. Uncached, every round
// pays for ranking, permutation, packetization and parity encoding again;
// cached, the round is a plan lookup plus one frame-cache hit per block,
// with zero GF(2^8) work.
func BenchmarkFetchCachedVsUncached(b *testing.B) {
	doc, err := corpus.Load(corpus.DraftName)
	if err != nil {
		b.Fatal(err)
	}
	engine := search.NewEngine(textproc.Options{})
	if err := engine.Add(doc); err != nil {
		b.Fatal(err)
	}
	req := planner.Request{
		Doc:    corpus.DraftName,
		Query:  "mobile web browsing",
		LOD:    "paragraph",
		Notion: "QIC",
	}
	// The retransmission round resends every third packet (the client
	// reports the rest as held), mixing clear-text and parity frames.
	round := func(b *testing.B, pl *planner.Planner) {
		r, err := pl.ResolveFrames(req)
		if err != nil {
			b.Fatal(err)
		}
		var blk *planner.Block
		for seq := 0; seq < r.Plan.N(); seq += 3 {
			gen, row, err := r.Plan.Locate(seq)
			if err == nil && !blk.Has(gen, row) {
				blk, err = r.Block(erasure.CodecVandermonde, 0, gen, row)
			}
			if err != nil {
				b.Fatal(err)
			}
			_ = blk.Frame(row)
		}
	}
	b.Run("uncached", func(b *testing.B) {
		pl, err := planner.New(engine, planner.Options{CacheBytes: -1, FrameCacheBytes: -1})
		if err != nil {
			b.Fatal(err)
		}
		round(b, pl) // first round: the fetch being retransmitted
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			round(b, pl)
		}
	})
	b.Run("cached", func(b *testing.B) {
		pl, err := planner.New(engine, planner.Options{})
		if err != nil {
			b.Fatal(err)
		}
		round(b, pl)
		cooks := pl.FrameStats().Cooks
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			round(b, pl)
		}
		b.StopTimer()
		if st := pl.Stats(); st.Builds != 1 {
			b.Fatalf("cached rounds rebuilt the plan: %+v", st)
		}
		if st := pl.FrameStats(); st.Cooks != cooks {
			b.Fatalf("cached rounds cooked %d frames", st.Cooks-cooks)
		}
	})
}

// BenchmarkLiveFetch measures a full in-process public-API round trip:
// parse → analyze → plan → frame-by-frame receive → reconstruct.
func BenchmarkLiveFetch(b *testing.B) {
	doc, err := corpus.Load(corpus.DraftName)
	if err != nil {
		b.Fatal(err)
	}
	an, err := Analyze(doc)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := an.Plan("mobile web browsing", PlanConfig{LOD: LODParagraph, Notion: NotionQIC})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(doc.Size()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rcv, err := NewReceiver(plan)
		if err != nil {
			b.Fatal(err)
		}
		for seq := 0; seq < plan.N(); seq++ {
			frame, err := plan.Frame(seq)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := rcv.AddFrame(frame); err != nil {
				b.Fatal(err)
			}
			if rcv.Reconstructible() {
				break
			}
		}
		if _, err := rcv.Reconstruct(); err != nil {
			b.Fatal(err)
		}
	}
}
