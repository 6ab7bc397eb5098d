// Command mrtload is an open-loop load generator for the transmission
// server: it synthesizes a document collection, starts an in-process
// server, and replays thousands to a million simulated mobile clients
// against it — Poisson arrivals, Zipf document popularity, per-client
// channel quality α drawn from a mixture — measuring what the shared
// cooked-frame cache buys on the hot path.
//
// Each run executes two passes over the same seeded workload: one with
// the frame cache enabled and one with it disabled (the per-connection
// marshal baseline). The report records cache hit rate, fetch-latency
// percentiles, allocations per fetch, and the server-side encode+marshal
// work (lazy parity rows + wire-frame marshals from the obs probes), so
// the cache's work reduction is a single ratio in BENCH_load.json.
//
// Usage:
//
//	mrtload                                  # 1000 clients, 10 docs
//	mrtload -clients 100000 -rate 5000       # sustained open-loop run
//	mrtload -json BENCH_load.json -txt results/framecache-bench.txt
//	mrtload -clients 50 -min-hit-rate 0.5    # CI smoke gate
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mobweb/internal/channel"
	"mobweb/internal/core"
	"mobweb/internal/document"
	"mobweb/internal/erasure"
	"mobweb/internal/framecache"
	"mobweb/internal/planner"
	"mobweb/internal/search"
	"mobweb/internal/textproc"
	"mobweb/internal/transport"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mrtload:", err)
		os.Exit(1)
	}
}

// config is the parsed workload description shared by both passes.
type config struct {
	clients     int
	docs        int
	docKB       int
	zipfS       float64
	seed        int64
	rate        float64
	maxInflight int
	adapt       bool
	gamma       float64
	mix         []mixComponent
	planCacheMB int64
	frameMB     int64
	codec       erasure.CodecID
}

// mixComponent is one (α, weight) entry of the client channel mixture.
type mixComponent struct {
	Alpha  float64 `json:"alpha"`
	Weight float64 `json:"weight"`
}

// passReport is the measured outcome of one pass over the workload.
type passReport struct {
	Name     string  `json:"name"`
	Fetches  int     `json:"fetches"`
	Failures int     `json:"failures"`
	Seconds  float64 `json:"seconds"`

	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MeanMs float64 `json:"mean_ms"`

	AllocsPerFetch float64 `json:"allocs_per_fetch"`

	HitRate    float64 `json:"hit_rate"`
	Hits       int64   `json:"hits"`
	Misses     int64   `json:"misses"`
	Cooks      int64   `json:"cooks"`
	Coalesced  int64   `json:"coalesced"`
	Evictions  int64   `json:"evictions"`
	CacheBytes int64   `json:"cache_bytes"`

	ParityRows    int64 `json:"parity_rows"`
	FrameMarshals int64 `json:"frame_marshals"`
	FramesOut     int64 `json:"frames_out"`
}

// report is the full BENCH_load.json payload.
type report struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`

	Clients  int            `json:"clients"`
	Docs     int            `json:"docs"`
	DocKB    int            `json:"doc_kb"`
	ZipfS    float64        `json:"zipf_s"`
	Seed     int64          `json:"seed"`
	RatePerS float64        `json:"rate_per_s"`
	Gamma    float64        `json:"gamma"`
	AlphaMix []mixComponent `json:"alpha_mix"`
	FrameMB  int64          `json:"framecache_mb"`
	Codec    string         `json:"codec,omitempty"`

	Cached   passReport `json:"cached"`
	Baseline passReport `json:"baseline"`

	// WorkReduction is (parity rows + frame marshals) baseline ÷ cached —
	// the acceptance ratio for the shared frame cache.
	WorkReduction float64 `json:"work_reduction"`
}

func run(args []string) error {
	fs := flag.NewFlagSet("mrtload", flag.ContinueOnError)
	clients := fs.Int("clients", 1000, "number of simulated client fetches")
	docs := fs.Int("docs", 10, "number of synthetic documents")
	docKB := fs.Int("doc-kb", 12, "approximate synthetic document size in KiB")
	zipfS := fs.Float64("zipf", 1.2, "Zipf popularity exponent (> 1)")
	seed := fs.Int64("seed", 1, "workload seed (arrivals, popularity, channel draws)")
	rate := fs.Float64("rate", 0, "open-loop Poisson arrival rate per second (0 = dispatch as fast as the inflight cap allows)")
	maxInflight := fs.Int("concurrency", 128, "maximum concurrent client fetches")
	adapt := fs.Bool("adapt", false, "clients adapt γ to their estimated channel (exercises the γ key dimension)")
	gamma := fs.Float64("gamma", core.DefaultGamma, "default redundancy ratio")
	alphaMix := fs.String("alpha-mix", "0:0.8,0.05:0.15,0.2:0.05", "per-client channel mixture as alpha:weight[,alpha:weight...]")
	frameMB := fs.Int64("framecache-mb", 32, "frame-cache byte budget in MiB for the cached pass (0 means the framecache default)")
	planMB := fs.Int64("plancache-mb", 64, "plan-cache byte budget in MiB")
	jsonPath := fs.String("json", "BENCH_load.json", "write machine-readable results here (empty disables)")
	txtPath := fs.String("txt", "", "also write the text summary here (stdout always gets it)")
	minHitRate := fs.Float64("min-hit-rate", 0, "fail unless the cached pass's frame-cache hit rate reaches this (CI gate)")
	skipBaseline := fs.Bool("no-baseline", false, "skip the cache-disabled baseline pass")
	fleet := fs.Int("fleet", 0, "run the sharded-fleet robustness pass over this many in-process replicas behind a front, instead of the cache passes (0 disables)")
	fleetKill := fs.Bool("fleet-kill", true, "fleet mode: kill one seeded replica mid-run")
	fleetRestart := fs.Bool("fleet-restart", false, "fleet mode: restart the killed replica late in the run")
	fleetShedMax := fs.Int("fleet-shed-max", 0, "fleet mode: front admission budget (0 means 64, negative disables shedding)")
	fleetDelay := fs.Duration("fleet-delay", 0, "fleet mode: per-packet pacing on each replica, so streams are long enough for the kill to land mid-stream")
	minCompleted := fs.Float64("min-completed", 0, "fleet mode: fail unless this fraction of fetches completes (CI gate)")
	codecFlag := fs.String("codec", "", "erasure codec clients request: vandermonde or fountain (empty = server default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	mix, err := parseMix(*alphaMix)
	if err != nil {
		return err
	}
	codec, err := erasure.ParseCodec(*codecFlag)
	if err != nil {
		return err
	}
	if *docs < 1 || *clients < 1 {
		return fmt.Errorf("need at least one document and one client")
	}
	if *zipfS <= 1 {
		return fmt.Errorf("zipf exponent must be > 1, got %v", *zipfS)
	}
	cfg := config{
		clients:     *clients,
		docs:        *docs,
		docKB:       *docKB,
		zipfS:       *zipfS,
		seed:        *seed,
		rate:        *rate,
		maxInflight: *maxInflight,
		adapt:       *adapt,
		gamma:       *gamma,
		mix:         mix,
		planCacheMB: *planMB,
		frameMB:     *frameMB,
		codec:       codec,
	}

	if *fleet > 0 {
		if *jsonPath == "BENCH_load.json" {
			// Fleet mode gets its own default artifact name so a fleet run
			// never clobbers the frame-cache benchmark.
			*jsonPath = "BENCH_fleet.json"
		}
		return runFleet(fleetConfig{
			config:       cfg,
			replicas:     *fleet,
			kill:         *fleetKill,
			restart:      *fleetRestart,
			shedMax:      *fleetShedMax,
			delay:        *fleetDelay,
			minCompleted: *minCompleted,
		}, *jsonPath, *txtPath)
	}

	rep := report{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Clients:    cfg.clients,
		Docs:       cfg.docs,
		DocKB:      cfg.docKB,
		ZipfS:      cfg.zipfS,
		Seed:       cfg.seed,
		RatePerS:   cfg.rate,
		Gamma:      cfg.gamma,
		AlphaMix:   cfg.mix,
		FrameMB:    cfg.frameMB,
		Codec:      cfg.codec.String(),
	}

	frameBytes := cfg.frameMB << 20
	if frameBytes == 0 {
		frameBytes = framecache.DefaultCacheBytes
	}
	rep.Cached, err = runPass("cached", cfg, frameBytes)
	if err != nil {
		return err
	}
	if !*skipBaseline {
		rep.Baseline, err = runPass("baseline", cfg, -1)
		if err != nil {
			return err
		}
		cachedWork := rep.Cached.ParityRows + rep.Cached.FrameMarshals
		baseWork := rep.Baseline.ParityRows + rep.Baseline.FrameMarshals
		if cachedWork > 0 {
			rep.WorkReduction = float64(baseWork) / float64(cachedWork)
		}
	}

	text := summarize(rep)
	fmt.Print(text)
	if *txtPath != "" {
		if err := writeFileMkdir(*txtPath, []byte(text)); err != nil {
			return err
		}
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := writeFileMkdir(*jsonPath, append(data, '\n')); err != nil {
			return err
		}
	}
	if *minHitRate > 0 && rep.Cached.HitRate < *minHitRate {
		return fmt.Errorf("frame-cache hit rate %.3f below gate %.3f", rep.Cached.HitRate, *minHitRate)
	}
	return nil
}

// runPass builds a fresh engine+server for one cache setting and drives
// the seeded workload through it. Package-global obs counters (parity
// rows, frame marshals) are deltas around the pass, since both passes
// share the process.
func runPass(name string, cfg config, frameCacheBytes int64) (passReport, error) {
	engine, err := buildCorpus(cfg)
	if err != nil {
		return passReport{}, err
	}
	pl, err := planner.New(engine, planner.Options{
		Defaults:        core.Config{Gamma: cfg.gamma},
		CacheBytes:      cfg.planCacheMB << 20,
		FrameCacheBytes: frameCacheBytes,
	})
	if err != nil {
		return passReport{}, err
	}

	// Per-connection injectors realize the α mixture: every accepted
	// connection draws a channel quality. α = 0 stays on the no-op
	// injector so the zero-copy cached-frame path is exercised.
	var mixMu sync.Mutex
	mixRng := rand.New(rand.NewSource(cfg.seed + 7919))
	srv, err := transport.NewServer(engine, transport.ServerOptions{
		Defaults: core.Config{Gamma: cfg.gamma},
		Planner:  pl,
		InjectorFactory: func() transport.FaultInjector {
			mixMu.Lock()
			alpha := drawAlpha(mixRng, cfg.mix)
			modelSeed := mixRng.Int63()
			mixMu.Unlock()
			if alpha <= 0 {
				return transport.NopInjector{}
			}
			model, err := channel.NewBernoulli(alpha, modelSeed)
			if err != nil {
				return transport.NopInjector{}
			}
			return transport.NewModelInjector(model)
		},
	})
	if err != nil {
		return passReport{}, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return passReport{}, err
	}
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		srv.Serve(ln)
	}()
	defer func() {
		srv.Close()
		<-serveDone
	}()
	addr := ln.Addr().String()

	// Deterministic workload: document choices and arrival offsets are
	// drawn up front from the seed, so cached and baseline passes replay
	// the same request sequence.
	wlRng := rand.New(rand.NewSource(cfg.seed))
	zipf := rand.NewZipf(wlRng, cfg.zipfS, 1, uint64(cfg.docs-1))
	docNames := make([]string, cfg.clients)
	waits := make([]time.Duration, cfg.clients)
	for i := range docNames {
		docNames[i] = docName(int(zipf.Uint64()))
		if cfg.rate > 0 {
			waits[i] = time.Duration(wlRng.ExpFloat64() / cfg.rate * float64(time.Second))
		}
	}

	latencies := make([]time.Duration, cfg.clients)
	failures := make([]bool, cfg.clients)
	sem := make(chan struct{}, cfg.maxInflight)
	var wg sync.WaitGroup

	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	parity0, marshal0 := probeCounters()
	start := time.Now()

	for i := 0; i < cfg.clients; i++ {
		if waits[i] > 0 {
			time.Sleep(waits[i])
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			t0 := time.Now()
			ok := fetchOnce(addr, docNames[i], cfg)
			latencies[i] = time.Since(t0)
			failures[i] = !ok
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	parity1, marshal1 := probeCounters()
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)

	failed := 0
	for _, f := range failures {
		if f {
			failed++
		}
	}
	fs := pl.FrameStats()
	rep := passReport{
		Name:           name,
		Fetches:        cfg.clients,
		Failures:       failed,
		Seconds:        elapsed.Seconds(),
		P50Ms:          percentile(latencies, 0.50),
		P99Ms:          percentile(latencies, 0.99),
		MeanMs:         meanMs(latencies),
		AllocsPerFetch: float64(msAfter.Mallocs-msBefore.Mallocs) / float64(cfg.clients),
		HitRate:        fs.HitRate(),
		Hits:           fs.Hits,
		Misses:         fs.Misses,
		Cooks:          fs.Cooks,
		Coalesced:      fs.Coalesced,
		Evictions:      fs.Evictions,
		CacheBytes:     fs.Bytes,
		ParityRows:     parity1 - parity0,
		FrameMarshals:  marshal1 - marshal0,
	}
	if failed > cfg.clients/10 {
		return rep, fmt.Errorf("%s pass: %d/%d fetches failed", name, failed, cfg.clients)
	}
	return rep, nil
}

// fetchOnce runs one simulated client session: dial, fetch, close.
func fetchOnce(addr, doc string, cfg config) bool {
	c, err := transport.Dial(addr)
	if err != nil {
		return false
	}
	defer c.Close()
	c.Timeout = 30 * time.Second
	res, err := c.Fetch(transport.FetchOptions{
		Doc:        doc,
		Caching:    true,
		AdaptGamma: cfg.adapt,
		MaxRounds:  20,
		Codec:      cfg.codec,
	})
	return err == nil && res.Body != nil
}

// probeCounters reads the package-global parity-row and frame-marshal
// counters from the obs probes.
func probeCounters() (parityRows, frameMarshals int64) {
	if m, ok := erasure.MetricsProbe().(map[string]int64); ok {
		parityRows = m["parity_rows"]
	}
	if m, ok := core.MetricsProbe().(map[string]int64); ok {
		frameMarshals = m["frame_marshals"]
	}
	return parityRows, frameMarshals
}

// buildCorpus synthesizes the document collection: deterministic bodies,
// distinct per document, shaped like the paper's test documents.
func buildCorpus(cfg config) (*search.Engine, error) {
	engine := search.NewEngine(textproc.Options{})
	for d := 0; d < cfg.docs; d++ {
		b := document.NewBuilder()
		paras := cfg.docKB * 2 // ~512 B per paragraph
		perSection := 4
		for p := 0; p < paras; p++ {
			if p%perSection == 0 {
				if p > 0 {
					b.Close()
				}
				b.Open(document.LODSection, fmt.Sprintf("%d", p/perSection+1), fmt.Sprintf("Section %d", p/perSection+1))
			}
			b.Paragraph(fmt.Sprintf("document %d paragraph %d mobile web weakly connected %s",
				d, p, strings.Repeat(fmt.Sprintf("w%dp%d ", d, p), 60)))
		}
		if paras > 0 {
			b.Close()
		}
		doc, err := b.Build(docName(d), fmt.Sprintf("Synthetic %d", d))
		if err != nil {
			return nil, err
		}
		if err := engine.Add(doc); err != nil {
			return nil, err
		}
	}
	return engine, nil
}

func docName(i int) string { return fmt.Sprintf("doc-%03d.xml", i) }

// drawAlpha samples the channel mixture.
func drawAlpha(rng *rand.Rand, mix []mixComponent) float64 {
	total := 0.0
	for _, m := range mix {
		total += m.Weight
	}
	u := rng.Float64() * total
	for _, m := range mix {
		u -= m.Weight
		if u <= 0 {
			return m.Alpha
		}
	}
	return mix[len(mix)-1].Alpha
}

// parseMix parses "alpha:weight[,alpha:weight...]".
func parseMix(s string) ([]mixComponent, error) {
	var out []mixComponent
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		alphaStr, weightStr, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("bad mixture component %q (want alpha:weight)", part)
		}
		alpha, err := strconv.ParseFloat(alphaStr, 64)
		if err != nil {
			return nil, fmt.Errorf("bad alpha in %q: %w", part, err)
		}
		weight, err := strconv.ParseFloat(weightStr, 64)
		if err != nil {
			return nil, fmt.Errorf("bad weight in %q: %w", part, err)
		}
		if alpha < 0 || alpha >= 1 || weight <= 0 {
			return nil, fmt.Errorf("mixture component %q out of range", part)
		}
		out = append(out, mixComponent{Alpha: alpha, Weight: weight})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty channel mixture")
	}
	return out, nil
}

func percentile(latencies []time.Duration, p float64) float64 {
	sorted := append([]time.Duration(nil), latencies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p * float64(len(sorted)-1))
	return float64(sorted[idx]) / float64(time.Millisecond)
}

func meanMs(latencies []time.Duration) float64 {
	var total time.Duration
	for _, l := range latencies {
		total += l
	}
	return float64(total) / float64(len(latencies)) / float64(time.Millisecond)
}

// summarize renders the human-readable table.
func summarize(rep report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "mrtload: %d clients, %d docs (~%d KiB), zipf %.2f, seed %d, mix %s, %s/%s %d cpu\n",
		rep.Clients, rep.Docs, rep.DocKB, rep.ZipfS, rep.Seed, mixString(rep.AlphaMix),
		rep.GOOS, rep.GOARCH, rep.NumCPU)
	w := func(p passReport) {
		if p.Name == "" {
			return
		}
		fmt.Fprintf(&b, "%-9s %8d fetches (%d failed) in %6.2fs   p50 %7.2fms  p99 %7.2fms  allocs/fetch %9.0f\n",
			p.Name, p.Fetches, p.Failures, p.Seconds, p.P50Ms, p.P99Ms, p.AllocsPerFetch)
		fmt.Fprintf(&b, "          hit rate %5.1f%%  (hits %d, misses %d, cooks %d, coalesced %d, evictions %d, %d bytes)\n",
			100*p.HitRate, p.Hits, p.Misses, p.Cooks, p.Coalesced, p.Evictions, p.CacheBytes)
		fmt.Fprintf(&b, "          server work: parity rows %d, frame marshals %d\n",
			p.ParityRows, p.FrameMarshals)
	}
	w(rep.Cached)
	w(rep.Baseline)
	if rep.WorkReduction > 0 {
		fmt.Fprintf(&b, "work reduction (parity+marshal, baseline/cached): %.1fx\n", rep.WorkReduction)
	}
	return b.String()
}

func mixString(mix []mixComponent) string {
	parts := make([]string, len(mix))
	for i, m := range mix {
		parts[i] = fmt.Sprintf("%g:%g", m.Alpha, m.Weight)
	}
	return strings.Join(parts, ",")
}

// writeFileMkdir writes a file, creating its directory if needed.
func writeFileMkdir(path string, data []byte) error {
	if idx := strings.LastIndexByte(path, '/'); idx > 0 {
		if err := os.MkdirAll(path[:idx], 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, data, 0o644)
}
