// Command mrtserver serves a document collection with fault-tolerant
// multi-resolution transmission over TCP, optionally emulating a lossy
// wireless hop.
//
// Usage:
//
//	mrtserver -addr :8047                          # embedded corpus
//	mrtserver -addr :8047 -dir ./docs -alpha 0.3   # extra documents, lossy
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mobweb/internal/channel"
	"mobweb/internal/core"
	"mobweb/internal/corpus"
	"mobweb/internal/erasure"
	"mobweb/internal/framecache"
	"mobweb/internal/gateway"
	"mobweb/internal/obs"
	"mobweb/internal/planner"
	"mobweb/internal/search"
	"mobweb/internal/shard"
	"mobweb/internal/textproc"
	"mobweb/internal/transport"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mrtserver:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mrtserver", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8047", "listen address")
	httpAddr := fs.String("http", "", "also serve the HTTP gateway (e.g. 127.0.0.1:8080)")
	docVia := fs.String("doc-via", "", "back the gateway's /doc with a packet-transport fetch to this address (a replica or mrtfront); shed/degraded surface as 503 + Retry-After")
	dir := fs.String("dir", "", "directory of additional .xml/.html documents")
	alpha := fs.Float64("alpha", 0, "emulated per-packet corruption probability")
	seed := fs.Int64("seed", 1, "fault injection seed")
	gamma := fs.Float64("gamma", core.DefaultGamma, "default redundancy ratio")
	delay := fs.Duration("delay", 0, "per-packet pacing delay (e.g. 100ms emulates 19.2 kbps feel)")
	noCorpus := fs.Bool("nocorpus", false, "skip the embedded corpus")
	cacheMB := fs.Int64("plancache-mb", 64, "plan-cache byte budget in MiB (0 disables caching)")
	frameMB := fs.Int64("framecache-mb", 32, "cooked-frame cache byte budget in MiB (0 disables caching)")
	chaosKills := fs.Int("chaos-kills", 0, "sever this many connections mid-stream on a seeded schedule (0 disables, -1 unlimited)")
	chaosMin := fs.Int("chaos-min", 0, "min bytes a connection may write before a chaos kill (0 = 2048)")
	chaosMax := fs.Int("chaos-max", 0, "max bytes before a chaos kill (0 = 4x min)")
	chaosStall := fs.Duration("chaos-stall", 0, "stall a connection this long before severing it")
	metricsAddr := fs.String("metrics-addr", "", "serve /debug/metrics, /debug/fetches and /debug/vars on this address (e.g. 127.0.0.1:8049)")
	statsEvery := fs.Duration("stats-every", 0, "log a one-line metrics summary at this interval (0 disables)")
	replicaName := fs.String("replica-name", "", "replica identity reported in fetch responses and scraped by a shard front")
	capability := fs.String("capability", "", "serve at a reduced tier: full, fetch-degraded, clear-prefix or search-only")
	shedMax := fs.Int("shed-max-inflight", 0, "admission budget: max concurrent fetch streams before shedding (0 disables)")
	shedRetryAfter := fs.Duration("shed-retry-after", 0, "retry-after hint attached to shed refusals (0 means 250ms)")
	codecFlag := fs.String("codec", "", "default erasure codec for fetches that don't name one: vandermonde or fountain")
	fountainSalt := fs.Uint64("fountain-salt", 0, "salt mixed into derived fountain seeds; replicas sharing a salt emit identical streams")
	if err := fs.Parse(args); err != nil {
		return err
	}
	defaultCodec, err := erasure.ParseCodec(*codecFlag)
	if err != nil {
		return err
	}

	engine := search.NewEngine(textproc.Options{})
	if !*noCorpus {
		docs, err := corpus.LoadAll()
		if err != nil {
			return err
		}
		for _, d := range docs {
			if err := engine.Add(d); err != nil {
				return fmt.Errorf("index %s: %w", d.Name, err)
			}
			fmt.Printf("indexed %s (%d bytes, %d units)\n", d.Name, d.Size(), len(d.Units()))
		}
	}
	if *dir != "" {
		if err := indexDir(engine, *dir); err != nil {
			return err
		}
	}
	if engine.Len() == 0 {
		return fmt.Errorf("no documents to serve")
	}

	// One planner shared between the TCP transport and the HTTP gateway:
	// a plan built for either front end serves retransmission rounds (and
	// layout bootstraps) on both.
	cacheBytes := *cacheMB << 20
	if cacheBytes == 0 {
		cacheBytes = -1 // planner: negative disables, zero means default
	}
	frameBytes := *frameMB << 20
	if frameBytes == 0 {
		frameBytes = -1 // framecache: negative disables, zero means default
	}
	pl, err := planner.New(engine, planner.Options{
		Defaults:        core.Config{Gamma: *gamma},
		CacheBytes:      cacheBytes,
		FrameCacheBytes: frameBytes,
	})
	if err != nil {
		return err
	}
	// One registry serves the TCP transmitter, the HTTP gateway and the
	// metrics listener; nil (no -metrics-addr, no -stats-every) keeps all
	// instrumentation on its no-op path.
	var reg *obs.Registry
	if *metricsAddr != "" || *statsEvery > 0 {
		reg = obs.NewRegistry()
	}
	opts := transport.ServerOptions{
		Name:         *replicaName,
		Defaults:     core.Config{Gamma: *gamma},
		Planner:      pl,
		PacketDelay:  *delay,
		Metrics:      reg,
		DefaultCodec: defaultCodec,
		FountainSalt: *fountainSalt,
	}
	if defaultCodec != erasure.CodecVandermonde {
		fmt.Printf("default codec: %s\n", defaultCodec)
	}
	// Always expose a capability state when the server is fleet-facing
	// (metrics scraped by a front) or explicitly tiered, so the front's
	// health checker can read the mode.
	if *capability != "" || *metricsAddr != "" {
		mode, err := transport.ParseCapability(*capability)
		if err != nil {
			return err
		}
		opts.Capability = transport.NewCapabilityState(mode)
		if mode != transport.CapFull {
			fmt.Printf("capability tier: %s\n", mode)
		}
	}
	if *shedMax > 0 {
		opts.Admission = shard.NewGate(shard.GateOptions{
			MaxInFlight: *shedMax,
			RetryAfter:  *shedRetryAfter,
		})
		fmt.Printf("admission control: %d in-flight fetch streams\n", *shedMax)
	}
	if *alpha > 0 {
		model, err := channel.NewBernoulli(*alpha, *seed)
		if err != nil {
			return err
		}
		opts.Injector = transport.NewModelInjector(model)
	}
	srv, err := transport.NewServer(engine, opts)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if *chaosKills != 0 {
		maxKills := *chaosKills
		if maxKills < 0 {
			maxKills = 0 // policy: zero means unlimited
		}
		chaos := transport.NewChaosListener(ln, transport.ChaosPolicy{
			Seed:         *seed,
			KillAfterMin: *chaosMin,
			KillAfterMax: *chaosMax,
			MaxKills:     maxKills,
			Stall:        *chaosStall,
		})
		fmt.Printf("chaos drill armed: up to %d kills (seed %d)\n", *chaosKills, *seed)
		ln = chaos
		reg.RegisterProbe("chaos", func() any {
			return map[string]int64{"kills": int64(chaos.Kills())}
		})
		defer func() { fmt.Printf("chaos kills delivered: %d\n", chaos.Kills()) }()
	}

	if *metricsAddr != "" {
		if err := reg.PublishExpvar("mobweb"); err != nil {
			return err
		}
		mux := http.NewServeMux()
		mux.Handle("GET /debug/metrics", obs.MetricsHandler(reg))
		mux.Handle("GET /debug/fetches", obs.FetchesHandler(reg))
		mux.Handle("GET /debug/vars", expvar.Handler())
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return err
		}
		msrv := &http.Server{Handler: mux}
		go func() {
			if err := msrv.Serve(mln); err != nil && err != http.ErrServerClosed {
				fmt.Printf("metrics listener stopped: %v\n", err)
			}
		}()
		fmt.Printf("metrics on %s (/debug/metrics, /debug/fetches, /debug/vars)\n", mln.Addr())
		defer msrv.Close()
	}
	if *statsEvery > 0 {
		done := make(chan struct{})
		defer close(done)
		go func() {
			t := time.NewTicker(*statsEvery)
			defer t.Stop()
			for {
				select {
				case <-done:
					return
				case <-t.C:
					fmt.Println(statsLine(reg))
				}
			}
		}()
	}

	if *docVia != "" && *httpAddr == "" {
		return fmt.Errorf("-doc-via requires -http")
	}
	var httpSrv *http.Server
	if *httpAddr != "" {
		gw, err := gateway.NewWithPlanner(engine, pl)
		if err != nil {
			return err
		}
		gw.SetMetrics(reg)
		if *docVia != "" {
			gw.SetFetcher(dialFetcher{addr: *docVia})
			fmt.Printf("gateway /doc via packet transport at %s\n", *docVia)
		}
		httpLn, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			return err
		}
		httpSrv = &http.Server{Handler: gw}
		go func() {
			if err := httpSrv.Serve(httpLn); err != nil && err != http.ErrServerClosed {
				fmt.Printf("http gateway stopped: %v\n", err)
			}
		}()
		fmt.Printf("http gateway on %s (/search, /sc/{name}, /doc/{name})\n", httpLn.Addr())
		defer httpSrv.Close()
	}
	fmt.Printf("serving %d documents on %s (alpha=%.2f, gamma=%.2f, delay=%v, plancache=%dMiB, framecache=%dMiB)\n",
		engine.Len(), ln.Addr(), *alpha, *gamma, *delay, *cacheMB, *frameMB)
	start := time.Now()
	err = srv.Serve(ln)
	fmt.Printf("server stopped after %v: %v\n", time.Since(start).Round(time.Second), err)
	fmt.Println(pl.Stats())
	fmt.Println(pl.FrameStats())
	return nil
}

// dialFetcher backs the gateway's /doc with a fresh transport connection
// per request: a shared *transport.Client serializes fetches on one TCP
// conn, while the front (or replica) is built to multiplex many short
// connections.
type dialFetcher struct{ addr string }

func (d dialFetcher) FetchContext(ctx context.Context, opts transport.FetchOptions) (*transport.FetchResult, error) {
	c, err := transport.Dial(d.addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return c.FetchContext(ctx, opts)
}

// statsLine condenses a registry snapshot into the periodic log line: the
// counters an operator watches to see whether the transmitter is moving,
// plus a frame-cache digest when the transport registered its probe.
func statsLine(reg *obs.Registry) string {
	s := reg.Snapshot()
	line := fmt.Sprintf("stats: conns=%d/%d fetches=%d frames_out=%d dropped=%d search=%d bad=%d",
		s.Gauges["serve.conns_active"], s.Counters["serve.conns_accepted"],
		s.Counters["serve.requests_fetch"], s.Counters["serve.frames_out"],
		s.Counters["serve.frames_dropped"], s.Counters["serve.requests_search"],
		s.Counters["serve.requests_bad"])
	if fc, ok := s.Probes["framecache"].(framecache.Stats); ok {
		line += fmt.Sprintf(" fc_hit=%.1f%% fc_cooks=%d fc_entries=%d fc_mb=%.1f",
			100*fc.HitRate(), fc.Cooks, fc.Entries, float64(fc.Bytes)/(1<<20))
	}
	if v := s.Counters["serve.fountain_fetches"]; v > 0 {
		line += fmt.Sprintf(" fountain=%d bcast_subs=%d bcast_drops=%d",
			v, s.Gauges["serve.broadcast_subscribers"], s.Counters["serve.broadcast_drops"])
		if fm, ok := s.Probes["fountain"].(map[string]int64); ok {
			line += fmt.Sprintf(" ft_generated=%d", fm["packets_generated"])
		}
	}
	return line
}

func indexDir(engine *search.Engine, dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		ext := strings.ToLower(filepath.Ext(name))
		if ext != ".xml" && ext != ".html" && ext != ".htm" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if ext == ".xml" {
			err = engine.AddXML(name, data)
		} else {
			err = engine.AddHTML(name, data)
		}
		if err != nil {
			fmt.Printf("skip %s: %v\n", name, err)
			continue
		}
		fmt.Printf("indexed %s\n", name)
	}
	return nil
}
