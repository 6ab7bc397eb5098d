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
	"errors"
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

// options is mrtserver's command line.
type options struct {
	addr, httpAddr, docVia, dir, metricsAddr, replicaName, capability, codec string
	alpha, gamma                                                             float64
	cacheMB, frameMB                                                         int64
	delay                                                                    time.Duration
	shedMax                                                                  int
	noCorpus                                                                 bool
}

// newFlagSet binds mrtserver's flags to o; DESIGN.md §22 lists each one.
func newFlagSet(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("mrtserver", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", "127.0.0.1:8047", "listen address")
	fs.StringVar(&o.httpAddr, "http", "", "also serve the HTTP gateway (e.g. 127.0.0.1:8080)")
	fs.StringVar(&o.docVia, "doc-via", "", "back the gateway's /doc with a packet-transport fetch to this address (a replica or mrtfront); shed/degraded surface as 503 + Retry-After")
	fs.StringVar(&o.dir, "dir", "", "directory of additional .xml/.html documents")
	fs.Float64Var(&o.alpha, "alpha", 0, "emulated per-packet corruption probability")
	fs.Float64Var(&o.gamma, "gamma", core.DefaultGamma, "default redundancy ratio")
	fs.DurationVar(&o.delay, "delay", 0, "per-packet pacing delay (e.g. 100ms emulates 19.2 kbps feel)")
	fs.BoolVar(&o.noCorpus, "nocorpus", false, "skip the embedded corpus")
	fs.Int64Var(&o.cacheMB, "plancache-mb", 64, "plan-cache byte budget in MiB (0 disables caching)")
	fs.Int64Var(&o.frameMB, "framecache-mb", 32, "cooked-frame cache byte budget in MiB (0 disables caching)")
	fs.StringVar(&o.metricsAddr, "metrics-addr", "", "serve /debug/metrics, /debug/fetches, /debug/vars and /debug/pprof/ on this address (e.g. 127.0.0.1:8049)")
	fs.StringVar(&o.replicaName, "replica-name", "", "replica identity reported in fetch responses and scraped by a shard front")
	fs.StringVar(&o.capability, "capability", "", "serve at a reduced tier: full, fetch-degraded, clear-prefix or search-only")
	fs.IntVar(&o.shedMax, "shed-max-inflight", 0, "admission budget: max concurrent fetch streams before shedding (0 disables)")
	fs.StringVar(&o.codec, "codec", "", "default erasure codec for fetches that don't name one: vandermonde or fountain")
	return fs
}

func parseFlags(args []string) (options, error) {
	var o options
	err := newFlagSet(&o).Parse(args)
	return o, err
}

// process is what one mrtserver serves: one document collection, one
// planner, one transmitter and, with -http, the gateway in front of that
// transmitter — so every setting below holds on both front ends.
type process struct {
	engine *search.Engine
	pl     *planner.Planner
	// reg serves the transmitter, the gateway and the metrics listener;
	// nil (no -metrics-addr) keeps all instrumentation on its no-op path.
	reg  *obs.Registry
	srv  *transport.Server
	gate *shard.Gate      // nil without -shed-max-inflight
	gw   *gateway.Handler // nil without -http
}

// newProcess indexes the documents and builds the transmitter and gateway
// o describes; it opens no listener.
func newProcess(o options) (*process, error) {
	defaultCodec, err := erasure.ParseCodec(o.codec)
	if err != nil {
		return nil, err
	}
	if o.docVia != "" && o.httpAddr == "" {
		return nil, fmt.Errorf("-doc-via requires -http")
	}
	p := &process{engine: search.NewEngine(textproc.Options{})}
	if !o.noCorpus {
		docs, err := corpus.LoadAll()
		if err != nil {
			return nil, err
		}
		for _, d := range docs {
			if err := p.engine.Add(d); err != nil {
				return nil, fmt.Errorf("index %s: %w", d.Name, err)
			}
			fmt.Printf("indexed %s (%d bytes, %d units)\n", d.Name, d.Size(), len(d.Units()))
		}
	}
	if o.dir != "" {
		if err := indexDir(p.engine, o.dir); err != nil {
			return nil, err
		}
	}
	if p.engine.Len() == 0 {
		return nil, fmt.Errorf("no documents to serve")
	}

	cacheBytes := o.cacheMB << 20
	if cacheBytes == 0 {
		cacheBytes = -1 // planner: negative disables, zero means default
	}
	frameBytes := o.frameMB << 20
	if frameBytes == 0 {
		frameBytes = -1 // framecache: negative disables, zero means default
	}
	if p.pl, err = planner.New(p.engine, planner.Options{
		Defaults:        core.Config{Gamma: o.gamma},
		CacheBytes:      cacheBytes,
		FrameCacheBytes: frameBytes,
	}); err != nil {
		return nil, err
	}
	if o.metricsAddr != "" {
		p.reg = obs.NewRegistry()
	}
	opts := transport.ServerOptions{
		Name:         o.replicaName,
		Planner:      p.pl,
		PacketDelay:  o.delay,
		Metrics:      p.reg,
		DefaultCodec: defaultCodec,
	}
	if defaultCodec != erasure.CodecVandermonde {
		fmt.Printf("default codec: %s\n", defaultCodec)
	}
	// Always expose a capability state when the server is fleet-facing
	// (metrics scraped by a front) or explicitly tiered, so the front's
	// health checker can read the mode.
	if o.capability != "" || o.metricsAddr != "" {
		mode, err := transport.ParseCapability(o.capability)
		if err != nil {
			return nil, err
		}
		opts.Capability = transport.NewCapabilityState(mode)
		if mode != transport.CapFull {
			fmt.Printf("capability tier: %s\n", mode)
		}
	}
	if o.shedMax > 0 {
		p.gate = shard.NewGate(shard.GateOptions{MaxInFlight: o.shedMax})
		opts.Admission = p.gate
		fmt.Printf("admission control: %d in-flight fetch streams\n", o.shedMax)
	}
	if o.alpha > 0 {
		model, err := channel.NewBernoulli(o.alpha, 1)
		if err != nil {
			return nil, err
		}
		// One channel realisation for every connection, /doc's included.
		injector := transport.NewModelInjector(model)
		opts.InjectorFactory = func() transport.FaultInjector { return injector }
	}
	if p.srv, err = transport.NewServer(p.engine, opts); err != nil {
		return nil, err
	}
	if o.httpAddr == "" {
		return p, nil
	}
	if p.gw, err = gateway.New(p.srv); err != nil {
		return nil, err
	}
	p.gw.SetMetrics(p.reg)
	if o.docVia != "" {
		p.gw.SetFetcher(dialFetcher{addr: o.docVia})
		fmt.Printf("gateway /doc via packet transport at %s\n", o.docVia)
	}
	return p, nil
}

func run(args []string) error {
	o, err := parseFlags(args)
	if errors.Is(err, flag.ErrHelp) {
		return nil
	} else if err != nil {
		return err
	}
	p, err := newProcess(o)
	if err != nil {
		return err
	}
	ln, err := listen("tcp", o.addr)
	if err != nil {
		return err
	}
	if o.metricsAddr != "" {
		msrv, err := obs.ServeDebug(o.metricsAddr, p.reg)
		if err != nil {
			return err
		}
		defer msrv.Close()
	}
	if p.gw != nil {
		httpLn, err := net.Listen("tcp", o.httpAddr)
		if err != nil {
			return err
		}
		httpSrv := &http.Server{Handler: p.gw}
		go func() {
			if err := httpSrv.Serve(httpLn); err != nil && err != http.ErrServerClosed {
				fmt.Printf("http gateway stopped: %v\n", err)
			}
		}()
		fmt.Printf("http gateway on %s (/search, /sc/{name}, /layout/{name}, /doc/{name})\n", httpLn.Addr())
		defer httpSrv.Close()
	}
	fmt.Printf("serving %d documents on %s (alpha=%.2f, gamma=%.2f, delay=%v, plancache=%dMiB, framecache=%dMiB)\n",
		p.engine.Len(), ln.Addr(), o.alpha, o.gamma, o.delay, o.cacheMB, o.frameMB)
	start := time.Now()
	err = p.srv.Serve(ln)
	fmt.Printf("server stopped after %v: %v\n", time.Since(start).Round(time.Second), err)
	fmt.Println(p.pl.Stats())
	fmt.Println(p.pl.FrameStats())
	if errors.Is(err, transport.ErrServerClosed) {
		return nil
	}
	return err
}

// listen opens the serving socket; tests swap it for a listener that
// fails.
var listen = net.Listen

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
