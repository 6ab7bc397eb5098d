package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric. BENCHMARK.json repeats these lists
// (a test keeps the two in step); bound is the share of the parent's
// median by which an end-to-end metric may worsen, zero for layer metrics.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd is what a browsing user, or whoever pays for the server and the
// air time, would see. Lower is better for all of them. A bound has to
// cover the metric's spread over ten seeds on the worst workload: the wall
// and CPU times moved 4-17 % between runs on the two-vCPU seed host even as
// quiet quartiles, so they get the contract's maximum; the counts are exact
// per seed and differ between seeds only through the generated corpus (most
// of all the bytes to the first unit, which is one paragraph's length), so
// all but that one are the tight gates.
var endToEnd = []metricDef{
	{"fetch_p50_ms", "ms", "lower", 0.25},
	{"fetch_p95_ms", "ms", "lower", 0.25},
	{"ttfu_p50_ms", "ms", "lower", 0.25},
	{"tF_p50_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_fetch", "ms", "lower", 0.25},
	{"wire_bytes_per_body_byte", "ratio", "lower", 0.04},
	{"wire_bytes_to_first_unit", "B", "lower", 0.25},
	{"wire_bytes_to_F", "B", "lower", 0.10},
	{"rounds_per_fetch", "count", "lower", 0.02},
	{"allocs_per_fetch", "count", "lower", 0.20},
	{"alloc_kb_per_fetch", "KiB", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.15},
}

// perLayer lists the layer metrics; names are layer.metric with this
// repo's package names as layers. README.md says where each comes from
// (replay, probe or span) and which end-to-end metric it should move.
var perLayer = []metricDef{
	{name: "transport.dial_us", unit: "us", better: "lower"},
	{name: "transport.fetch_us", unit: "us", better: "lower"},
	{name: "transport.first_frame_us", unit: "us", better: "lower"},
	{name: "transport.stream_us", unit: "us", better: "lower"},
	{name: "transport.finish_us", unit: "us", better: "lower"},
	{name: "transport.header_us", unit: "us", better: "lower"},
	{name: "transport.wire_us_per_frame", unit: "us", better: "lower"},
	{name: "transport.unattributed_us", unit: "us", better: "lower"},
	{name: "transport.fetch_p99_ms", unit: "ms", better: "lower"},
	{name: "transport.frames_per_fetch", unit: "count", better: "lower"},
	{name: "transport.corrupt_frac", unit: "ratio", better: "lower"},
	{name: "transport.refetched_per_fetch", unit: "count", better: "lower"},
	{name: "transport.reconnects_per_kfetch", unit: "count", better: "lower"},
	{name: "planner.resolve_hit_us", unit: "us", better: "lower"},
	{name: "planner.build_us", unit: "us", better: "lower"},
	{name: "planner.hit_rate", unit: "ratio", better: "higher"},
	{name: "planner.builds_per_fetch", unit: "count", better: "lower"},
	{name: "planner.evictions_per_fetch", unit: "count", better: "lower"},
	{name: "planner.bytes_mb", unit: "MiB", better: "lower"},
	{name: "framecache.frame_hit_ns", unit: "ns", better: "lower"},
	{name: "framecache.cook_us", unit: "us", better: "lower"},
	{name: "framecache.hit_rate", unit: "ratio", better: "higher"},
	{name: "framecache.cooks_per_fetch", unit: "count", better: "lower"},
	{name: "framecache.evictions_per_fetch", unit: "count", better: "lower"},
	{name: "framecache.bytes_mb", unit: "MiB", better: "lower"},
	{name: "core.newplan_us", unit: "us", better: "lower"},
	{name: "core.newreceiver_us", unit: "us", better: "lower"},
	{name: "core.addframe_ns", unit: "ns", better: "lower"},
	{name: "core.render_progress_us_per_fetch", unit: "us", better: "lower"},
	{name: "core.render_final_us", unit: "us", better: "lower"},
	{name: "core.reconstruct_us", unit: "us", better: "lower"},
	{name: "core.decodes_per_fetch", unit: "count", better: "lower"},
	{name: "core.frame_marshals_per_fetch", unit: "count", better: "lower"},
	{name: "core.wire_bytes_to_F", unit: "B", better: "lower"},
	{name: "erasure.decode_us_per_gen", unit: "us", better: "lower"},
	{name: "erasure.parity_row_us", unit: "us", better: "lower"},
	{name: "erasure.parity_rows_per_fetch", unit: "count", better: "lower"},
	{name: "erasure.inv_hit_rate", unit: "ratio", better: "higher"},
	{name: "fountain.add_ns_per_symbol", unit: "ns", better: "lower"},
	{name: "fountain.encode_ns_per_symbol", unit: "ns", better: "lower"},
	{name: "fountain.overhead_frac", unit: "ratio", better: "lower"},
	{name: "fountain.gauss_frac", unit: "ratio", better: "lower"},
	{name: "fountain.overshoot_per_fetch", unit: "count", better: "lower"},
	{name: "fountain.inv_hit_rate", unit: "ratio", better: "higher"},
	{name: "gf256.muladd256_MBps", unit: "MB/s", better: "higher"},
	{name: "packet.parse_ns", unit: "ns", better: "lower"},
	{name: "crc.checksum260_ns", unit: "ns", better: "lower"},
	{name: "channel.inject_ns", unit: "ns", better: "lower"},
	{name: "channel.alpha_observed", unit: "ratio", better: "lower"},
	{name: "store.put_us_per_visit", unit: "us", better: "lower"},
	{name: "store.seed_us_per_visit", unit: "us", better: "lower"},
	{name: "store.open_ms", unit: "ms", better: "lower"},
	{name: "store.bytes_per_visit", unit: "B", better: "lower"},
	{name: "store.seeded_packets_per_visit", unit: "count", better: "higher"},
	{name: "store.evicted_segments_per_kvisit", unit: "count", better: "lower"},
	{name: "store.stale_seed_frac", unit: "ratio", better: "lower"},
	{name: "search.add_ms_per_doc", unit: "ms", better: "lower"},
	{name: "search.query_us", unit: "us", better: "lower"},
	{name: "content.evaluate_us", unit: "us", better: "lower"},
	{name: "runtime.gc_pause_ms_per_s", unit: "ms/s", better: "lower"},
	{name: "runtime.gc_cycles_per_kfetch", unit: "count", better: "lower"},
	{name: "runtime.heap_mb", unit: "MiB", better: "lower"},
	{name: "env.ref_spin_ms", unit: "ms", better: "lower"},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower"},
}

// exactCounts are the end-to-end metrics that are ratios of integer
// totals over a fixed script: on a Vandermonde workload at a fixed lane
// count two runs of one seed must print them bit for bit.
var exactCounts = []string{
	"wire_bytes_per_body_byte", "wire_bytes_to_first_unit", "wire_bytes_to_F", "rounds_per_fetch",
}

// meanSamples are the replay samples that are byte counts, reported as
// the mean over the traced ops; every other sample is a time and reports
// the median.
var meanSamples = map[string]bool{"core.wire_bytes_to_F": true, "store.bytes_per_visit": true}

// budgetLine is one replayed stage of the per-layer budget.
type budgetLine struct {
	stage string
	us    float64 // median over the traced ops of the stage's time per op
	share float64 // of the median live op
}

// result is everything one workload's run reports.
type result struct {
	workload          string
	attempted, failed int
	// mismatches counts traced ops whose replayed channel simulation
	// disagreed with the live fetch about frames received or corrupted.
	mismatches int
	endToEnd   map[string]float64
	layers     map[string]float64 // nil without the traced pass
	budget     []budgetLine
	liveOpUs   float64
}

func (r result) correct() bool { return r.failed == 0 && r.mismatches == 0 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// measured is one workload's raw material for summarize.
type measured struct {
	b       *bench
	setups  []float64 // seconds, one per set-up repetition
	slices  []sliceResult
	live    opsResult // the traced pass's live ops
	replay  *replayer
	traces  []*opTrace
	heapMiB float64
}

// summarize turns slices, probes and replay samples into named metrics.
func summarize(m measured) result {
	var total tally
	var elapsed, gcPause time.Duration
	var mallocs, allocBytes uint64
	var gcCycles uint32
	counters := make(map[string]float64)
	perSlice := make(map[string][]float64)
	var pooled, spins []float64
	for _, s := range m.slices {
		total.add(s.tally)
		elapsed += s.elapsed
		gcPause += s.gcPause
		mallocs += s.mallocs
		allocBytes += s.allocBytes
		gcCycles += s.gcCycles
		spins = append(spins, s.spinMs)
		for k, v := range s.counters {
			counters[k] += float64(v)
		}
		lat := msSamples(s.times, func(t opTimes) time.Duration { return t.total })
		pooled = append(pooled, lat...)
		perSlice["fetch_p50_ms"] = append(perSlice["fetch_p50_ms"], percentile(lat, 0.5))
		perSlice["fetch_p95_ms"] = append(perSlice["fetch_p95_ms"], percentile(lat, 0.95))
		perSlice["ttfu_p50_ms"] = append(perSlice["ttfu_p50_ms"],
			percentile(msSamples(s.times, func(t opTimes) time.Duration { return t.firstUnit }), 0.5))
		perSlice["tF_p50_ms"] = append(perSlice["tF_p50_ms"],
			percentile(msSamples(s.times, func(t opTimes) time.Duration { return t.threshold }), 0.5))
		perSlice["cpu_ms_per_fetch"] = append(perSlice["cpu_ms_per_fetch"], ratio(ms(s.cpu), float64(s.ops)))
	}
	ops, fetches := float64(total.ops), float64(total.fetches)
	res := result{workload: m.b.w.name, attempted: total.ops, failed: total.failed}
	e := make(map[string]float64)
	for name, vals := range perSlice {
		e[name] = quiet(vals)
	}
	e["wire_bytes_per_body_byte"] = ratio(float64(total.wireBytes), float64(total.bodyBytes))
	e["wire_bytes_to_first_unit"] = ratio(float64(total.firstUnitBytes), ops)
	e["wire_bytes_to_F"] = ratio(float64(total.thresholdBytes), ops)
	e["rounds_per_fetch"] = ratio(float64(total.rounds), fetches)
	e["allocs_per_fetch"] = ratio(float64(mallocs), ops)
	e["alloc_kb_per_fetch"] = ratio(float64(allocBytes)/1024, ops)
	e["setup_s"] = median(m.setups)
	e["peak_rss_mb"] = peakRSSMiB()
	res.endToEnd = e
	if m.replay == nil {
		return res
	}

	res.attempted += m.live.ops
	res.failed += m.live.failed
	res.mismatches = m.replay.mismatches
	l := make(map[string]float64)
	for _, d := range perLayer {
		l[d.name] = 0 // a layer that did nothing on this workload reports zero
	}
	for name, vals := range m.replay.samples {
		if meanSamples[name] {
			l[name] = ratio(sum(vals), float64(len(vals)))
		} else {
			l[name] = median(vals)
		}
	}
	spans := spanMedians(m.traces)
	for _, name := range []string{"dial", "fetch", "first_frame", "stream", "finish"} {
		l["transport."+name+"_us"] = spans["transport."+name]
	}
	c := func(name string) float64 { return counters[name] }
	sort.Float64s(pooled)
	l["transport.fetch_p99_ms"] = percentile(pooled, 0.99)
	l["transport.frames_per_fetch"] = ratio(float64(total.frames), fetches)
	l["transport.corrupt_frac"] = ratio(float64(total.corrupt), float64(total.frames))
	l["transport.refetched_per_fetch"] = ratio(float64(total.refetched), fetches)
	l["transport.reconnects_per_kfetch"] = ratio(1000*float64(total.reconnects), fetches)
	ps, fs := m.b.planner.Stats(), m.b.planner.FrameStats()
	l["planner.build_us"] = ratio(c("planner.build_ns")/1000, c("planner.builds"))
	l["planner.hit_rate"] = ratio(c("planner.hits"), c("planner.hits")+c("planner.misses"))
	l["planner.builds_per_fetch"] = ratio(c("planner.builds"), fetches)
	l["planner.evictions_per_fetch"] = ratio(c("planner.evictions"), fetches)
	l["planner.bytes_mb"] = float64(ps.Bytes) / (1 << 20)
	l["framecache.cook_us"] = ratio(c("framecache.cook_ns")/1000, c("framecache.cooks"))
	l["framecache.hit_rate"] = ratio(c("framecache.hits"), c("framecache.hits")+c("framecache.misses"))
	l["framecache.cooks_per_fetch"] = ratio(c("framecache.cooks"), fetches)
	l["framecache.evictions_per_fetch"] = ratio(c("framecache.evictions"), fetches)
	l["framecache.bytes_mb"] = float64(fs.Bytes) / (1 << 20)
	l["core.decodes_per_fetch"] = ratio(c("core.decodes"), fetches)
	l["core.frame_marshals_per_fetch"] = ratio(c("core.frame_marshals"), fetches)
	l["erasure.parity_rows_per_fetch"] = ratio(c("erasure.parity_rows"), fetches)
	l["erasure.inv_hit_rate"] = ratio(c("erasure.inv_hits"), c("erasure.inv_hits")+c("erasure.inv_misses"))
	l["fountain.overhead_frac"] = ratio(c("fountain.packets_consumed")-c("fountain.packets_needed"), c("fountain.packets_needed"))
	l["fountain.gauss_frac"] = ratio(c("fountain.gauss_decodes"), c("fountain.gauss_decodes")+c("fountain.peel_decodes"))
	l["fountain.overshoot_per_fetch"] = ratio(c("fountain.overshoot_packets"), fetches)
	l["fountain.inv_hit_rate"] = ratio(c("fountain.inv_hits"), c("fountain.inv_hits")+c("fountain.inv_misses"))
	l["channel.alpha_observed"] = ratio(float64(m.replay.simCorrupt), float64(m.replay.simFrames))
	if visits := float64(total.visits); visits > 0 {
		var opens []float64
		for _, ln := range m.b.lanes {
			opens = append(opens, ln.openMs...)
		}
		l["store.open_ms"] = median(opens)
		l["store.seeded_packets_per_visit"] = float64(total.seededPackets) / visits
		l["store.evicted_segments_per_kvisit"] = 1000 * c("store.evictions") / visits
		l["store.stale_seed_frac"] = float64(total.staleSkims) / visits
	}
	l["search.add_ms_per_doc"] = m.b.addMsPerDoc
	l["runtime.gc_pause_ms_per_s"] = ratio(ms(gcPause), elapsed.Seconds())
	l["runtime.gc_cycles_per_kfetch"] = ratio(1000*float64(gcCycles), ops)
	l["runtime.heap_mb"] = m.heapMiB
	l["env.ref_spin_ms"] = median(spins)
	// The traced ops are one burst about a slice long, so they are set
	// against the typical slice, not the quiet one.
	liveMs := median(msSamples(m.live.times, func(t opTimes) time.Duration { return t.total }))
	l["trace.overhead_frac"] = ratio(liveMs, median(perSlice["fetch_p50_ms"])) - 1
	res.layers = l

	// The budget: the self time of every replayed span against the live op.
	res.liveOpUs = spans["op"]
	for name, v := range replaySelfTimes(m.traces) {
		res.budget = append(res.budget, budgetLine{name, v, ratio(v, res.liveOpUs)})
	}
	sort.Slice(res.budget, func(i, j int) bool { return res.budget[i].us > res.budget[j].us })
	return res
}

// replaySelfTimes gives, for every span below "replay", the median over
// the ops of its self time per op in microseconds: its duration minus the
// part its child spans cover.
func replaySelfTimes(traces []*opTrace) map[string]float64 {
	live := map[string]bool{"": true, "op": true, "transport.fetch": true}
	perOp := make(map[string][]float64)
	for _, tr := range traces {
		self := make(map[string]float64)
		for _, s := range tr.spans {
			if live[s.Parent] {
				continue
			}
			d := float64(s.EndNs-s.StartNs) / 1000
			self[s.Name] += d
			if s.Parent != "replay" {
				self[s.Parent] -= d
			}
		}
		for name, v := range self {
			perOp[name] = append(perOp[name], v)
		}
	}
	out := make(map[string]float64, len(perOp))
	for name, vals := range perOp {
		out[name] = median(vals)
	}
	return out
}

func sum(vals []float64) float64 {
	t := 0.0
	for _, v := range vals {
		t += v
	}
	return t
}

// spanMedians sums each span name's duration within an op (a visit dials
// twice) and returns the median of those sums over the ops that have the
// span, in microseconds.
func spanMedians(traces []*opTrace) map[string]float64 {
	perOp := make(map[string][]float64)
	for _, tr := range traces {
		sums := make(map[string]float64)
		for _, s := range tr.spans {
			sums[s.Name] += float64(s.EndNs-s.StartNs) / 1000
		}
		for name, v := range sums {
			perOp[name] = append(perOp[name], v)
		}
	}
	out := make(map[string]float64, len(perOp))
	for name, vals := range perOp {
		out[name] = median(vals)
	}
	return out
}

// envBlock is the header of every output: enough to tell two result files
// from different hosts or settings apart.
func envBlock(cfg config, seconds int, gitHead string, gfKernel string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# mobweb fetch benchmark - loopback (127.0.0.1), not a real link\n")
	fmt.Fprintf(&b, "# %s/%s nproc=%d GOMAXPROCS=%d lanes=%d %s\n",
		runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), cfg.lanes, runtime.Version())
	fmt.Fprintf(&b, "# git=%s seed=%d seconds=%d gf256=%s slices=%d\n", gitHead, cfg.seed, seconds, gfKernel, numSlices)
	return b.String()
}

// printResult writes one workload's metrics by name with their units.
func printResult(w io.Writer, r result) {
	fmt.Fprintf(w, "\n== %s: %d ops attempted, %d failed", r.workload, r.attempted, r.failed)
	if r.layers != nil {
		fmt.Fprintf(w, ", %d replay mismatches", r.mismatches)
	}
	fmt.Fprintln(w)
	for _, d := range endToEnd {
		fmt.Fprintf(w, "%-36s %14.4f %s\n", d.name, r.endToEnd[d.name], d.unit)
	}
	if r.layers == nil {
		return
	}
	for _, d := range perLayer {
		fmt.Fprintf(w, "%-36s %14.4f %s\n", d.name, r.layers[d.name], d.unit)
	}
	fmt.Fprintf(w, "-- budget of the median traced op (%.1f us live):\n", r.liveOpUs)
	for _, line := range r.budget {
		fmt.Fprintf(w, "   %-33s %11.1f us %6.1f %%\n", line.stage, line.us, 100*line.share)
	}
}

// resultJSON is the one-line machine-readable result: the end-to-end
// metrics of an untraced run, the layer metrics of a traced one.
func resultJSON(r result, traced bool) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, vals := endToEnd, r.endToEnd
	if traced {
		defs, vals = perLayer, r.layers
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		metrics[d.name] = value{vals[d.name], d.unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, metrics})
}
