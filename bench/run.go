package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mobweb/internal/channel"
	"mobweb/internal/content"
	"mobweb/internal/core"
	"mobweb/internal/crc"
	"mobweb/internal/erasure"
	"mobweb/internal/fountain"
	"mobweb/internal/planner"
	"mobweb/internal/search"
	"mobweb/internal/store"
	"mobweb/internal/textproc"
	"mobweb/internal/transport"
)

// opCounts sizes one workload's script: an untimed warm-up, numSlices
// timed slices of equal op count, and the traced pass.
type opCounts struct{ warm, slice, traced int }

func (n opCounts) total() int { return n.warm + numSlices*n.slice + n.traced }

// config is what one benchmark run needs besides the workload.
type config struct {
	seed   int64
	lanes  int
	outDir string // trace files and packet stores live here
}

// storeReopenEvery is the visit count after which resume_store closes and
// re-opens its packet store, so recovery runs inside the workload.
const storeReopenEvery = 50

// bench is one workload set up and ready to run: corpus indexed, one
// server per lane listening on loopback, reference bodies computed.
type bench struct {
	w       workload
	cfg     config
	counts  opCounts
	corpus  *corpus
	engine  *search.Engine
	planner *planner.Planner
	refs    [][]byte // reference body per document
	lanes   []*lane
	ops     []op
	// addMsPerDoc is the set-up span around Engine.Add.
	addMsPerDoc float64
}

// lane is one closed-loop client and the server it talks to. A lane has
// one connection open at a time and dials per fetch, as mrtload does; its
// server builds each connection's channel from the seed the lane posted
// just before dialling, so channel realisations follow the script alone.
type lane struct {
	b        *bench
	id       int
	addr     string
	srv      *transport.Server
	served   chan struct{}
	nextSeed atomic.Int64

	storeDir string
	store    *store.Store
	visits   int
	openMs   []float64 // store.Open spans of the re-opens
}

// newChannel is the seeded Bernoulli channel both the live servers and the
// replay use; alpha 0 is the no-op injector, which keeps the server on its
// zero-copy cached-frame path.
func newChannel(alpha float64, seed int64) transport.FaultInjector {
	if alpha == 0 {
		return transport.NopInjector{}
	}
	model, err := channel.NewBernoulli(alpha, seed)
	if err != nil {
		panic(err) // the workload table holds only valid alphas
	}
	return transport.NewModelInjector(model)
}

// setUp builds everything a workload needs and runs its warm-up, which
// fills the plan, frame and inverse caches (or brings the evicting ones to
// their steady state). All of it is what setup_s measures.
func setUp(w workload, cfg config, counts opCounts) (*bench, error) {
	c, err := genCorpus(cfg.seed, w.scriptKey, w.docs, w.docBytes)
	if err != nil {
		return nil, err
	}
	b := &bench{w: w, cfg: cfg, counts: counts, corpus: c}
	b.engine = search.NewEngine(textproc.Options{})
	start := time.Now()
	for _, d := range c.docs {
		if err := b.engine.Add(d.doc); err != nil {
			return nil, err
		}
	}
	b.addMsPerDoc = ms(time.Since(start)) / float64(len(c.docs))
	b.planner, err = planner.New(b.engine, planner.Options{
		Defaults:        core.Config{Gamma: gamma},
		CacheBytes:      w.planCacheBytes,
		FrameCacheBytes: w.frameCacheBytes,
	})
	if err != nil {
		return nil, err
	}
	b.refs = make([][]byte, len(c.docs))
	for i, d := range c.docs {
		sc, _ := b.engine.SC(d.name)
		if b.refs[i], err = referenceBody(sc); err != nil {
			return nil, err
		}
	}
	for i := 0; i < cfg.lanes; i++ {
		l, err := b.startLane(i)
		if err != nil {
			b.close()
			return nil, err
		}
		b.lanes = append(b.lanes, l)
	}
	b.ops = script(w, c, cfg.seed, counts.total())
	if warm := b.runOps(0, counts.warm, nil); warm.failed > 0 {
		b.close()
		return nil, fmt.Errorf("bench: %s: %d of %d warm-up ops failed", w.name, warm.failed, warm.ops)
	}
	return b, nil
}

// referenceBody reconstructs a document in-process from the clear rows of
// an uncorrupted plan; it must equal the parsed document's own body. Every
// full read of the run is compared with it byte for byte.
func referenceBody(sc *content.SC) ([]byte, error) {
	plan, err := core.NewPlan(sc, nil, core.Config{Gamma: gamma})
	if err != nil {
		return nil, err
	}
	rcv, err := core.NewReceiver(plan)
	if err != nil {
		return nil, err
	}
	lo := plan.Layout()
	for seq := 0; seq < plan.N(); seq++ {
		if !lo.IsClear(seq) {
			continue
		}
		frame, err := plan.Frame(seq)
		if err != nil {
			return nil, err
		}
		if _, _, err := rcv.AddFrame(frame); err != nil {
			return nil, err
		}
	}
	body, err := rcv.Reconstruct()
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(body, sc.Doc().Body()) {
		return nil, fmt.Errorf("bench: %s: clean reconstruction differs from the document body", sc.Doc().Name)
	}
	return body, nil
}

func (b *bench) startLane(id int) (*lane, error) {
	l := &lane{b: b, id: id, served: make(chan struct{})}
	srv, err := transport.NewServer(b.engine, transport.ServerOptions{
		Planner: b.planner,
		InjectorFactory: func() transport.FaultInjector {
			return newChannel(b.w.alpha, l.nextSeed.Load())
		},
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l.srv, l.addr = srv, ln.Addr().String()
	go func() {
		defer close(l.served)
		srv.Serve(ln) // returns ErrServerClosed once close() runs
	}()
	if b.w.store {
		l.storeDir = filepath.Join(b.cfg.outDir, fmt.Sprintf("store-%d-%d", os.Getpid(), id))
		os.RemoveAll(l.storeDir)
		if err := l.openStore(); err != nil {
			l.close()
			return nil, err
		}
	}
	return l, nil
}

// openStore opens the lane's packet store with a budget small enough that
// a document's records are evicted before the script visits it again.
func (l *lane) openStore() error {
	start := time.Now()
	st, err := store.Open(l.storeDir, store.Options{MaxBytes: 1 << 20, SegmentBytes: 128 << 10})
	if err != nil {
		return err
	}
	l.openMs = append(l.openMs, ms(time.Since(start)))
	l.store = st
	return nil
}

func (l *lane) close() {
	l.srv.Close()
	<-l.served
	if l.store != nil {
		l.store.Close()
	}
	if l.storeDir != "" {
		os.RemoveAll(l.storeDir)
	}
}

// close stops every server, waits for its goroutines and removes the
// packet stores.
func (b *bench) close() {
	for _, l := range b.lanes {
		l.close()
	}
	b.lanes = nil
}

// tally sums what the ops of a slice did. Every field is an integer, so
// totals over a fixed script repeat exactly.
type tally struct {
	ops, failed, fetches                   int
	wireBytes, bodyBytes                   int
	rounds, frames, corrupt                int
	refetched, reconnects                  int
	seededPackets, staleSkims              int
	firstUnitBytes, thresholdBytes, visits int
}

func (t *tally) add(o tally) {
	t.ops += o.ops
	t.failed += o.failed
	t.fetches += o.fetches
	t.wireBytes += o.wireBytes
	t.bodyBytes += o.bodyBytes
	t.rounds += o.rounds
	t.frames += o.frames
	t.corrupt += o.corrupt
	t.refetched += o.refetched
	t.reconnects += o.reconnects
	t.seededPackets += o.seededPackets
	t.staleSkims += o.staleSkims
	t.firstUnitBytes += o.firstUnitBytes
	t.thresholdBytes += o.thresholdBytes
	t.visits += o.visits
}

// opTimes are one op's user-visible delays, from just before the first
// Dial: the whole op, the first rendered unit, and information content
// reaching thresholdF.
type opTimes struct{ total, firstUnit, threshold time.Duration }

// fetchMarks is what one fetch reports beyond its FetchResult.
type fetchMarks struct {
	// The progress stamps are zero without OnProgress.
	frames                           int
	firstUnitAt, thresholdAt         time.Duration // since the op started
	firstUnitFrames, thresholdFrames int
	firstCallback, lastCallback      time.Time // traced ops only
}

// fetch runs one dial-fetch-close cycle against the lane's server over the
// channel o.chanSeed selects. opStart anchors the progress stamps; tr, when
// non-nil, receives the live spans.
func (l *lane) fetch(o op, stopAtIC float64, opStart time.Time, tr *opTrace) (*transport.FetchResult, fetchMarks, error) {
	w := l.b.w
	var m fetchMarks
	opts := transport.FetchOptions{
		Doc: l.b.corpus.docs[o.doc].name, Query: o.query,
		LOD: w.lod, Notion: w.notion, Codec: w.codec,
		Caching: w.caching, StopAtIC: stopAtIC,
	}
	if w.progress {
		opts.OnProgress = func(p transport.Progress) {
			m.frames++
			if tr != nil {
				m.lastCallback = time.Now()
				if m.firstCallback.IsZero() {
					m.firstCallback = m.lastCallback
				}
			}
			if m.firstUnitFrames == 0 && len(p.NewUnits) > 0 {
				m.firstUnitAt, m.firstUnitFrames = time.Since(opStart), m.frames
			}
			if m.thresholdFrames == 0 && p.InfoContent >= thresholdF {
				m.thresholdAt, m.thresholdFrames = time.Since(opStart), m.frames
			}
		}
	}
	l.nextSeed.Store(o.chanSeed)
	t0 := time.Now()
	c, err := transport.Dial(l.addr)
	if err != nil {
		return nil, m, err
	}
	defer c.Close()
	c.Retry = transport.NoRetry // a lost connection must show as a failure
	c.Store = l.store
	t1 := time.Now()
	res, err := c.Fetch(opts)
	t2 := time.Now()
	if tr != nil {
		if res != nil {
			tr.legs = append(tr.legs, legResult{res.PacketsReceived, res.PacketsCorrupted})
		}
		tr.span("transport.dial", "op", t0, t1)
		tr.span("transport.fetch", "op", t1, t2)
		if !m.firstCallback.IsZero() {
			tr.span("transport.first_frame", "transport.fetch", t1, m.firstCallback)
			tr.span("transport.stream", "transport.fetch", m.firstCallback, m.lastCallback)
			tr.span("transport.finish", "transport.fetch", m.lastCallback, t2)
		}
	}
	return res, m, err
}

// runOp executes one scripted op on the lane, checks its outputs and adds
// it to the tally. It returns the op's delays; ok is false when any check
// failed.
func (l *lane) runOp(o op, t *tally, tr *opTrace) (times opTimes, ok bool) {
	w := l.b.w
	t.ops++
	fail := func() (opTimes, bool) { t.failed++; return opTimes{}, false }
	count := func(r *transport.FetchResult) {
		t.fetches++
		t.wireBytes += r.BytesReceived
		t.rounds += r.Rounds
		t.frames += r.PacketsReceived
		t.corrupt += r.PacketsCorrupted
		t.refetched += r.RefetchedPackets
		t.reconnects += r.Reconnects
	}
	if w.store && l.visits > 0 && l.visits%storeReopenEvery == 0 {
		l.store.Close()
		t0 := time.Now()
		if err := l.openStore(); err != nil {
			return fail()
		}
		if tr != nil {
			tr.span("store.open", "op", t0, time.Now())
		}
	}
	start := time.Now()
	var skim *transport.FetchResult
	if w.store {
		// The skim: a first client reads to thresholdF and goes away.
		l.visits++
		t.visits++
		var err error
		if skim, _, err = l.fetch(o, thresholdF, start, tr); err != nil {
			return fail()
		}
		times.firstUnit = time.Since(start)
		times.threshold = times.firstUnit
		count(skim)
		t.firstUnitBytes += skim.BytesReceived
		t.thresholdBytes += skim.BytesReceived
		if skim.StoredPackets > 0 {
			t.staleSkims++
		}
		o.chanSeed++ // the re-read's connection gets a channel of its own
	}
	res, m, err := l.fetch(o, 0, start, tr)
	times.total = time.Since(start)
	if tr != nil {
		tr.span("op", "", start, start.Add(times.total))
	}
	if err != nil {
		return fail()
	}
	count(res)
	t.bodyBytes += len(res.Body)
	t.seededPackets += res.StoredPackets
	switch {
	case w.store:
	case w.progress:
		// Frames of one codec are all the same length, so the bytes at a
		// stamp are its frame count times the mean frame length.
		perFrame := res.BytesReceived / max(res.PacketsReceived, 1)
		times.firstUnit, times.threshold = m.firstUnitAt, m.thresholdAt
		t.firstUnitBytes += m.firstUnitFrames * perFrame
		t.thresholdBytes += m.thresholdFrames * perFrame
		if m.firstUnitFrames == 0 || m.thresholdFrames == 0 {
			return fail()
		}
	default:
		// Without a progress callback the caller has nothing to show until
		// Fetch returns: the first unit and F arrive with the whole body.
		times.firstUnit, times.threshold = times.total, times.total
		t.firstUnitBytes += res.BytesReceived
		t.thresholdBytes += res.BytesReceived
	}
	if !bytes.Equal(res.Body, l.b.refs[o.doc]) {
		return fail()
	}
	if skim != nil && (skim.InfoContent < thresholdF || skim.RefetchedPackets+res.RefetchedPackets > 0) {
		return fail()
	}
	return times, true
}

// opsResult is what a run of consecutive script ops produced.
type opsResult struct {
	tally
	times []opTimes // by position; failed ops keep the zero value
}

// runOps executes script ops [from, from+n) across the lanes (op i on lane
// i mod lanes) and waits for all of them. traces, when non-nil, has one
// entry per op to receive its live spans.
func (b *bench) runOps(from, n int, traces []*opTrace) opsResult {
	res := opsResult{times: make([]opTimes, n)}
	tallies := make([]tally, len(b.lanes))
	var wg sync.WaitGroup
	for k, l := range b.lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := k; i < n; i += len(b.lanes) {
				var tr *opTrace
				if traces != nil {
					tr = traces[i]
				}
				if times, ok := l.runOp(b.ops[from+i], &tallies[k], tr); ok {
					res.times[i] = times
				}
			}
		}()
	}
	wg.Wait()
	for _, t := range tallies {
		res.add(t)
	}
	return res
}

// sliceResult is one timed slice: per-op delays, totals, the process
// resources it used, and the deltas of the layers' public counters.
type sliceResult struct {
	opsResult
	elapsed, cpu, gcPause time.Duration
	mallocs, allocBytes   uint64
	gcCycles              uint32
	spinMs                float64
	counters              map[string]int64
}

// runSlice runs timed slice s. Collection, the reference spin and the
// counter snapshots all happen outside the timed region.
func (b *bench) runSlice(s int) sliceResult {
	runtime.GC()
	var r sliceResult
	r.spinMs = refSpin()
	before := b.counters()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, t0 := cpuTime(), time.Now()
	r.opsResult = b.runOps(b.counts.warm+s*b.counts.slice, b.counts.slice, nil)
	r.elapsed, r.cpu = time.Since(t0), cpuTime()-cpu0
	runtime.ReadMemStats(&m1)
	r.mallocs, r.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	r.gcPause, r.gcCycles = time.Duration(m1.PauseTotalNs-m0.PauseTotalNs), m1.NumGC-m0.NumGC
	r.counters = b.counters()
	for k, v := range before {
		r.counters[k] -= v
	}
	return r
}

// counters flattens the layers' existing public probes into one map of
// monotonic counters, so a slice's share is a plain subtraction. The
// erasure, fountain, core and store probes are process-wide; the planner
// and frame-cache ones belong to this workload's planner.
func (b *bench) counters() map[string]int64 {
	ps, fs := b.planner.Stats(), b.planner.FrameStats()
	m := map[string]int64{
		"planner.hits": ps.Hits, "planner.misses": ps.Misses, "planner.builds": ps.Builds,
		"planner.build_ns": int64(ps.BuildTime), "planner.evictions": ps.Evictions,
		"framecache.hits": fs.Hits, "framecache.misses": fs.Misses, "framecache.cooks": fs.Cooks,
		"framecache.cook_ns": int64(fs.CookTime), "framecache.evictions": fs.Evictions,
	}
	for layer, probe := range map[string]func() any{
		"erasure": erasure.MetricsProbe, "fountain": fountain.MetricsProbe,
		"core": core.MetricsProbe, "store": store.MetricsProbe,
	} {
		for k, v := range probe().(map[string]int64) {
			m[layer+"."+k] = v
		}
	}
	return m
}

// spinBuf is the input of the reference spin.
var spinBuf = make([]byte, 64<<10)

// refSpin times a fixed CRC loop. It is reported beside the metrics to
// show how the host drifted between slices and is never used to normalise.
func refSpin() float64 {
	start := time.Now()
	var sum uint16
	for i := 0; i < 64; i++ {
		sum ^= crc.Checksum(spinBuf)
	}
	spinBuf[0] = byte(sum) // keep the loop live
	return ms(time.Since(start))
}

// cpuTime is the process's user plus system CPU time so far: both halves
// of every fetch, client and server, run in this process.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's high-water resident set (Linux reports KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// msSamples extracts one delay of every successful op, sorted.
func msSamples(times []opTimes, pick func(opTimes) time.Duration) []float64 {
	out := make([]float64, 0, len(times))
	for _, t := range times {
		if t.total > 0 {
			out = append(out, ms(pick(t)))
		}
	}
	sort.Float64s(out)
	return out
}
