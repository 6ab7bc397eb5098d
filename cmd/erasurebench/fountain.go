// The fountain grid: drive real transport fetches over loopback and
// compare the rateless fountain codec against adaptive-γ Vandermonde
// across a grid of channel corruption rates α. Three questions, matching the codec's pitch:
//
//  1. Does a fountain fetch finish in ONE round at every α, where the
//     fixed-rate codec needs a retransmission dialog?
//  2. What is the reception overhead — intact symbols consumed beyond
//     the M the document needs — and does it stay small?
//  3. Does broadcast fan-out amortize: is serving 32 subscribers from
//     one cooked stream close to the encode+marshal work of serving 1?
//
// The workload is deterministic (seeded injectors, synthetic corpus),
// so two runs on one host produce comparable artifacts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"mobweb/internal/channel"
	"mobweb/internal/core"
	"mobweb/internal/document"
	"mobweb/internal/erasure"
	"mobweb/internal/fountain"
	"mobweb/internal/planner"
	"mobweb/internal/search"
	"mobweb/internal/textproc"
	"mobweb/internal/transport"
)

// fountainConfig carries the fountain-mode knobs parsed in run().
type fountainConfig struct {
	alphas   []float64
	fetches  int
	subs     int
	docKB    int
	seed     int64
	gamma    float64
	maxGen   int
	gate     bool
	maxOver  float64
	maxRatio float64
}

// fountainCell is one α grid point: both codecs fetching the same
// document through the same seeded channel model.
type fountainCell struct {
	Alpha float64 `json:"alpha"`

	// Fountain side. Overhead is (intact symbols consumed − M)/M, the
	// classic rateless reception overhead; corrupt frames don't count
	// against the codec (both codecs pay for them equally in bytes).
	FountainRounds   float64 `json:"fountain_rounds_mean"`
	FountainOneRound bool    `json:"fountain_single_round"`
	FountainIntact   float64 `json:"fountain_intact_mean"`
	FountainOverhead float64 `json:"fountain_overhead_mean"`
	FountainBytes    float64 `json:"fountain_bytes_mean"`

	// Adaptive-γ Vandermonde side.
	VandRounds float64 `json:"vand_rounds_mean"`
	VandBytes  float64 `json:"vand_bytes_mean"`

	// BytesRatio is fountain/Vandermonde bytes-to-decode; < 1 means the
	// rateless codec moved fewer bytes over the air.
	BytesRatio float64 `json:"bytes_ratio"`
}

// broadcastPass measures the server-side cost of one fan-out size:
// fountain symbols encoded plus frames marshalled, the work a transmitter
// actually spends before bytes hit the socket.
type broadcastPass struct {
	Subscribers    int     `json:"subscribers"`
	PacketsEncoded int64   `json:"packets_encoded"`
	FrameMarshals  int64   `json:"frame_marshals"`
	Work           int64   `json:"work"`
	Seconds        float64 `json:"seconds"`
}

type fountainReport struct {
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Gamma      float64 `json:"gamma"`
	DocKB      int     `json:"doc_kb"`
	M          int     `json:"m"`
	Fetches    int     `json:"fetches_per_cell"`
	Seed       int64   `json:"seed"`

	Grid []fountainCell `json:"grid"`

	MeanOverhead float64 `json:"mean_overhead"`
	AllOneRound  bool    `json:"all_single_round"`

	BroadcastOne  broadcastPass `json:"broadcast_one"`
	BroadcastMany broadcastPass `json:"broadcast_many"`
	// BroadcastRatio is many-subscriber work over one-subscriber work;
	// the fan-out amortizes when it stays well under the subscriber
	// count (the gate asks for < 2× at 32 subscribers).
	BroadcastRatio float64 `json:"broadcast_ratio"`
}

func runFountain(cfg fountainConfig, jsonPath, txtPath string) error {
	rep := fountainReport{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Gamma:      cfg.gamma,
		DocKB:      cfg.docKB,
		Fetches:    cfg.fetches,
		Seed:       cfg.seed,
	}

	for _, alpha := range cfg.alphas {
		cell, m, err := measureAlpha(cfg, alpha)
		if err != nil {
			return fmt.Errorf("alpha %.2f: %w", alpha, err)
		}
		rep.M = m
		rep.Grid = append(rep.Grid, cell)
	}
	rep.AllOneRound = true
	for _, c := range rep.Grid {
		rep.MeanOverhead += c.FountainOverhead
		if !c.FountainOneRound {
			rep.AllOneRound = false
		}
	}
	if len(rep.Grid) > 0 {
		rep.MeanOverhead /= float64(len(rep.Grid))
	}

	one, err := measureBroadcast(cfg, 1)
	if err != nil {
		return fmt.Errorf("broadcast 1: %w", err)
	}
	many, err := measureBroadcast(cfg, cfg.subs)
	if err != nil {
		return fmt.Errorf("broadcast %d: %w", cfg.subs, err)
	}
	rep.BroadcastOne, rep.BroadcastMany = one, many
	if one.Work > 0 {
		rep.BroadcastRatio = float64(many.Work) / float64(one.Work)
	}

	var out strings.Builder
	writeFountainTable(&out, &rep, cfg)
	fmt.Print(out.String())
	if txtPath != "" {
		if err := writeFileMkdirAll(txtPath, []byte(out.String())); err != nil {
			return err
		}
	}
	if jsonPath != "" {
		blob, err := json.MarshalIndent(&rep, "", "  ")
		if err != nil {
			return err
		}
		if err := writeFileMkdirAll(jsonPath, append(blob, '\n')); err != nil {
			return err
		}
	}
	return gateFountain(&rep, cfg)
}

// gateFountain enforces the CI acceptance thresholds when -gate is set.
func gateFountain(rep *fountainReport, cfg fountainConfig) error {
	if !cfg.gate {
		return nil
	}
	if !rep.AllOneRound {
		return fmt.Errorf("gate: fountain needed more than one round on some cell")
	}
	if rep.MeanOverhead > cfg.maxOver {
		return fmt.Errorf("gate: mean reception overhead %.3f above %.3f", rep.MeanOverhead, cfg.maxOver)
	}
	for _, c := range rep.Grid {
		if c.Alpha >= 0.2 && c.FountainBytes >= c.VandBytes {
			return fmt.Errorf("gate: at alpha %.2f fountain moved %.0f bytes, Vandermonde %.0f",
				c.Alpha, c.FountainBytes, c.VandBytes)
		}
	}
	if rep.BroadcastRatio >= cfg.maxRatio {
		return fmt.Errorf("gate: broadcast work ratio %.2f at %d subscribers, want < %.2f",
			rep.BroadcastRatio, cfg.subs, cfg.maxRatio)
	}
	return nil
}

// benchEngine builds the single synthetic document both codecs fetch.
func benchEngine(cfg fountainConfig) (*search.Engine, string, error) {
	engine := search.NewEngine(textproc.Options{})
	b := document.NewBuilder()
	paras := cfg.docKB * 2 // ~512 B per paragraph
	for p := 0; p < paras; p++ {
		if p%4 == 0 {
			if p > 0 {
				b.Close()
			}
			b.Open(document.LODSection, fmt.Sprintf("%d", p/4+1), fmt.Sprintf("Section %d", p/4+1))
		}
		b.Paragraph(fmt.Sprintf("fountain bench paragraph %d mobile web weakly connected %s",
			p, strings.Repeat(fmt.Sprintf("fb%d ", p), 60)))
	}
	if paras > 0 {
		b.Close()
	}
	const name = "fountain-bench.xml"
	doc, err := b.Build(name, "Fountain Bench")
	if err != nil {
		return nil, "", err
	}
	if err := engine.Add(doc); err != nil {
		return nil, "", err
	}
	return engine, name, nil
}

// benchServer starts a loopback transmitter over a fresh engine, planner
// and frame cache, with a per-connection Bernoulli injector at alpha.
// A small per-frame delay emulates the paper's slow wireless hop: without
// it, loopback pipelining lets the transmitter race many frames past the
// client's stop feedback, and that in-flight slop — an artifact of an
// infinitely fast link — would be charged to the codec as overhead.
func benchServer(cfg fountainConfig, alpha float64, delay time.Duration) (addr, doc string, m int, stop func(), err error) {
	engine, doc, err := benchEngine(cfg)
	if err != nil {
		return "", "", 0, nil, err
	}
	defaults := core.Config{Gamma: cfg.gamma, MaxGeneration: cfg.maxGen}
	pl, err := planner.New(engine, planner.Options{Defaults: defaults})
	if err != nil {
		return "", "", 0, nil, err
	}
	plan, err := pl.Resolve(planner.Request{Doc: doc})
	if err != nil {
		return "", "", 0, nil, err
	}
	m = plan.Layout().M()
	opts := transport.ServerOptions{Defaults: defaults, Planner: pl, PacketDelay: delay}
	if alpha > 0 {
		// Each accepted connection draws its own deterministic fault
		// pattern, so repeated fetches are independent trials.
		var mu sync.Mutex
		connSeed := cfg.seed
		opts.InjectorFactory = func() transport.FaultInjector {
			mu.Lock()
			connSeed++
			s := connSeed
			mu.Unlock()
			model, merr := channel.NewBernoulli(alpha, s)
			if merr != nil {
				return transport.NopInjector{}
			}
			return transport.NewModelInjector(model)
		}
	}
	srv, err := transport.NewServer(engine, opts)
	if err != nil {
		return "", "", 0, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", "", 0, nil, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	stop = func() {
		srv.Close()
		<-done
	}
	return ln.Addr().String(), doc, m, stop, nil
}

func fetchBench(addr, doc string, opts transport.FetchOptions) (*transport.FetchResult, error) {
	c, err := transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	c.Timeout = 30 * time.Second
	opts.Doc = doc
	opts.Caching = true
	if opts.MaxRounds == 0 {
		opts.MaxRounds = 40
	}
	return c.Fetch(opts)
}

// measureAlpha runs cfg.fetches fetches per codec at one corruption rate
// and reduces them to the cell means.
func measureAlpha(cfg fountainConfig, alpha float64) (fountainCell, int, error) {
	addr, doc, m, stop, err := benchServer(cfg, alpha, 200*time.Microsecond)
	if err != nil {
		return fountainCell{}, 0, err
	}
	defer stop()

	cell := fountainCell{Alpha: alpha, FountainOneRound: true}
	for i := 0; i < cfg.fetches; i++ {
		res, err := fetchBench(addr, doc, transport.FetchOptions{Codec: erasure.CodecFountain})
		if err != nil {
			return cell, 0, fmt.Errorf("fountain fetch %d: %w", i, err)
		}
		intact := res.PacketsReceived - res.PacketsCorrupted
		cell.FountainRounds += float64(res.Rounds)
		cell.FountainIntact += float64(intact)
		cell.FountainOverhead += float64(intact-m) / float64(m)
		cell.FountainBytes += float64(res.BytesReceived)
		if res.Rounds != 1 {
			cell.FountainOneRound = false
		}
	}
	for i := 0; i < cfg.fetches; i++ {
		res, err := fetchBench(addr, doc, transport.FetchOptions{AdaptGamma: true})
		if err != nil {
			return cell, 0, fmt.Errorf("vandermonde fetch %d: %w", i, err)
		}
		cell.VandRounds += float64(res.Rounds)
		cell.VandBytes += float64(res.BytesReceived)
	}
	f := float64(cfg.fetches)
	cell.FountainRounds /= f
	cell.FountainIntact /= f
	cell.FountainOverhead /= f
	cell.FountainBytes /= f
	cell.VandRounds /= f
	cell.VandBytes /= f
	if cell.VandBytes > 0 {
		cell.BytesRatio = cell.FountainBytes / cell.VandBytes
	}
	return cell, m, nil
}

// fountainWork reads the package-global encode+marshal counters the
// broadcast passes diff around themselves.
func fountainWork() (packets, marshals int64) {
	if m, ok := fountain.MetricsProbe().(map[string]int64); ok {
		packets = m["packets_generated"]
	}
	if m, ok := core.MetricsProbe().(map[string]int64); ok {
		marshals = m["frame_marshals"]
	}
	return packets, marshals
}

// measureBroadcast fans one fountain stream out to subs concurrent
// subscribers over a clean channel and reports the server-side work. A
// fresh server per pass keeps the frame cache cold, so the comparison is
// cook-work against cook-work, not a cache-hit artifact. The pass
// pre-dials every subscriber and the carousel runs at the emulated link
// rate — on a broadcast channel, subscribers join a stream the air
// interface is feeding, they don't race a CPU-speed producer.
func measureBroadcast(cfg fountainConfig, subs int) (broadcastPass, error) {
	addr, doc, _, stop, err := benchServer(cfg, 0, 500*time.Microsecond)
	if err != nil {
		return broadcastPass{}, err
	}
	defer stop()

	clients := make([]*transport.Client, subs)
	defer func() {
		for _, c := range clients {
			if c != nil {
				c.Close()
			}
		}
	}()
	for i := range clients {
		c, err := transport.Dial(addr)
		if err != nil {
			return broadcastPass{}, err
		}
		c.Timeout = 60 * time.Second
		clients[i] = c
	}

	p0, m0 := fountainWork()
	start := time.Now()
	errs := make([]error, subs)
	var wg sync.WaitGroup
	for i := 0; i < subs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := clients[i].Fetch(transport.FetchOptions{
				Doc:       doc,
				Caching:   true,
				MaxRounds: 40,
				Codec:     erasure.CodecFountain,
				Broadcast: true,
			})
			if err == nil && res.Body == nil {
				err = fmt.Errorf("no body")
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	p1, m1 := fountainWork()
	for i, err := range errs {
		if err != nil {
			return broadcastPass{}, fmt.Errorf("subscriber %d: %w", i, err)
		}
	}
	pass := broadcastPass{
		Subscribers:    subs,
		PacketsEncoded: p1 - p0,
		FrameMarshals:  m1 - m0,
		Seconds:        elapsed.Seconds(),
	}
	pass.Work = pass.PacketsEncoded + pass.FrameMarshals
	return pass, nil
}

func writeFountainTable(w io.Writer, rep *fountainReport, cfg fountainConfig) {
	fmt.Fprintf(w, "fountain codec benchmark — %s/%s, %d CPU, GOMAXPROCS=%d\n",
		rep.GOOS, rep.GOARCH, rep.NumCPU, rep.GOMAXPROCS)
	fmt.Fprintf(w, "doc ~%d KiB (M=%d raw packets), gamma=%.1f, %d fetches per cell, seed %d\n\n",
		rep.DocKB, rep.M, rep.Gamma, rep.Fetches, rep.Seed)

	fmt.Fprintf(w, "fetch grid: rateless fountain vs adaptive-γ Vandermonde\n")
	fmt.Fprintf(w, "%-6s  %-28s  %-20s  %s\n", "", "fountain", "vandermonde", "")
	fmt.Fprintf(w, "%-6s  %6s %8s %12s  %6s %12s  %8s\n",
		"alpha", "rounds", "overhead", "bytes", "rounds", "bytes", "ft/vd")
	for _, c := range rep.Grid {
		fmt.Fprintf(w, "%-6.2f  %6.1f %7.1f%% %12.0f  %6.1f %12.0f  %8.2f\n",
			c.Alpha, c.FountainRounds, 100*c.FountainOverhead, c.FountainBytes,
			c.VandRounds, c.VandBytes, c.BytesRatio)
	}
	fmt.Fprintf(w, "\nmean reception overhead: %.1f%%  single-round everywhere: %v\n",
		100*rep.MeanOverhead, rep.AllOneRound)

	fmt.Fprintf(w, "\nbroadcast fan-out (server encode+marshal work, clean channel)\n")
	fmt.Fprintf(w, "%-12s  %10s  %10s  %10s  %8s\n", "subscribers", "encoded", "marshals", "work", "seconds")
	for _, p := range []broadcastPass{rep.BroadcastOne, rep.BroadcastMany} {
		fmt.Fprintf(w, "%-12d  %10d  %10d  %10d  %8.2f\n",
			p.Subscribers, p.PacketsEncoded, p.FrameMarshals, p.Work, p.Seconds)
	}
	fmt.Fprintf(w, "work ratio %d-vs-1: %.2fx\n", rep.BroadcastMany.Subscribers, rep.BroadcastRatio)
	if cfg.gate {
		fmt.Fprintf(w, "\ngates: overhead <= %.0f%%, fountain < vandermonde bytes at alpha >= 0.2, broadcast ratio < %.1fx\n",
			100*cfg.maxOver, cfg.maxRatio)
	}
}

func writeFileMkdirAll(path string, data []byte) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, data, 0o644)
}

// parseAlphas parses the -alphas grid spelling ("0.05,0.1,0.2").
func parseAlphas(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil || v < 0 || v >= 1 {
			return nil, fmt.Errorf("bad alpha %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty alpha grid")
	}
	return out, nil
}

// fountainFlags registers the fountain-mode flags on the shared flag set
// and returns a closure producing the parsed config.
func fountainFlags(fs *flag.FlagSet) func() (fountainConfig, error) {
	alphas := fs.String("alphas", "0.05,0.1,0.2,0.3,0.4", "fountain mode: channel corruption grid")
	fetches := fs.Int("fetches", 6, "fountain mode: fetches per (alpha, codec) cell")
	subs := fs.Int("subs", 32, "fountain mode: broadcast fan-out size")
	docKB := fs.Int("doc-kb", 24, "fountain mode: synthetic document size in KiB")
	seed := fs.Int64("seed", 1, "fountain mode: workload and channel seed")
	gamma := fs.Float64("gamma", gamma, "fountain mode: Vandermonde redundancy ratio")
	maxGen := fs.Int("max-generation", 16, "fountain mode: raw packets per generation (0 = one generation per document; small generations trade reception overhead for progressive IC)")
	gate := fs.Bool("gate", false, "fountain mode: fail on the CI acceptance thresholds")
	maxOver := fs.Float64("max-overhead", 0.15, "fountain mode: gate on mean reception overhead")
	maxRatio := fs.Float64("max-broadcast-ratio", 2.0, "fountain mode: gate on fan-out work ratio")
	return func() (fountainConfig, error) {
		grid, err := parseAlphas(*alphas)
		if err != nil {
			return fountainConfig{}, err
		}
		if *fetches < 1 || *subs < 1 {
			return fountainConfig{}, fmt.Errorf("need at least one fetch and one subscriber")
		}
		return fountainConfig{
			alphas:   grid,
			fetches:  *fetches,
			subs:     *subs,
			docKB:    *docKB,
			seed:     *seed,
			gamma:    *gamma,
			maxGen:   *maxGen,
			gate:     *gate,
			maxOver:  *maxOver,
			maxRatio: *maxRatio,
		}, nil
	}
}
