package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"mobweb/internal/channel"
	"mobweb/internal/core"
	"mobweb/internal/planner"
	"mobweb/internal/prefetch"
	"mobweb/internal/profile"
	"mobweb/internal/store"
	"mobweb/internal/transport"
)

// This file executes one replay pass: the same generated trace, with the
// persistent store and speculative prefetch either disabled (the
// baseline "off" pass) or enabled (the "on" pass under test). Every
// session is one simulated mobile client: its own connection, its own
// store directory, its own interest profile, its own process kill.

// passMode selects which client-side machinery a pass runs with.
type passMode struct {
	name     string
	store    bool // persistent packet store across process lives
	prefetch bool // speculative idle-window prefetch
}

// passOutcome aggregates a pass's measurements across sessions.
type passOutcome struct {
	foreground  []time.Duration // every foreground read/skim latency
	postTTFU    []time.Duration // time-to-first-useful-unit of post-kill reads
	refetched   int             // FetchResult.RefetchedPackets summed over all foreground fetches
	resumeBytes int             // wire bytes spent re-reading documents fully read before the kill
	stored      int             // packets restored from the store across all fetches
	prefetchRx  int             // frames received inside idle prefetch windows
	mismatches  int             // post-kill bodies that differ from their pre-kill reference
	failures    int             // fetches or searches that returned an error
	errs        []string        // first few failure messages, for the gate's diagnosis
	seconds     float64
}

// fail records a failure with a bounded error sample.
func (o *passOutcome) fail(err error) {
	o.failures++
	if err != nil && len(o.errs) < 5 {
		o.errs = append(o.errs, err.Error())
	}
}

// runPass boots a fresh in-process server and replays every session of
// the trace against it.
func runPass(cfg config, tr replayTrace, mode passMode) (passOutcome, error) {
	engine, err := buildCorpus(cfg)
	if err != nil {
		return passOutcome{}, err
	}
	pl, err := planner.New(engine, planner.Options{Defaults: core.Config{Gamma: cfg.gamma}})
	if err != nil {
		return passOutcome{}, err
	}
	sopts := transport.ServerOptions{
		Defaults:    core.Config{Gamma: cfg.gamma},
		Planner:     pl,
		PacketDelay: cfg.packetDelay,
	}
	if cfg.alpha > 0 {
		// Every accepted connection draws its own seeded corruption
		// model; the draw sequence is pinned by the workload seed.
		var mixMu sync.Mutex
		mixRng := newSeededRand(cfg.seed + 7919)
		sopts.InjectorFactory = func() transport.FaultInjector {
			mixMu.Lock()
			modelSeed := mixRng.Int63()
			mixMu.Unlock()
			model, err := channel.NewBernoulli(cfg.alpha, modelSeed)
			if err != nil {
				return transport.NopInjector{}
			}
			return transport.NewModelInjector(model)
		}
	}
	srv, err := transport.NewServer(engine, sopts)
	if err != nil {
		return passOutcome{}, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return passOutcome{}, err
	}
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		srv.Serve(ln)
	}()
	defer func() {
		ln.Close()
		srv.Close()
		<-serveDone
	}()
	addr := ln.Addr().String()

	storeRoot := ""
	if mode.store {
		storeRoot, err = os.MkdirTemp("", "mrtreplay-"+mode.name+"-*")
		if err != nil {
			return passOutcome{}, err
		}
		defer os.RemoveAll(storeRoot)
	}

	start := time.Now()
	var (
		mu  sync.Mutex
		out passOutcome
	)
	sem := make(chan struct{}, cfg.concurrency)
	var wg sync.WaitGroup
	for _, sess := range tr.Sessions {
		wg.Add(1)
		go func(sess sessionTrace) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			so := runSession(cfg, addr, storeRoot, sess, mode)
			mu.Lock()
			out.foreground = append(out.foreground, so.foreground...)
			out.postTTFU = append(out.postTTFU, so.postTTFU...)
			out.refetched += so.refetched
			out.resumeBytes += so.resumeBytes
			out.stored += so.stored
			out.prefetchRx += so.prefetchRx
			out.mismatches += so.mismatches
			out.failures += so.failures
			if len(out.errs) < 5 {
				out.errs = append(out.errs, so.errs...)
				if len(out.errs) > 5 {
					out.errs = out.errs[:5]
				}
			}
			mu.Unlock()
		}(sess)
	}
	wg.Wait()
	out.seconds = time.Since(start).Seconds()
	return out, nil
}

// sessionLife is one process life of a session: the foreground
// connection, the prefetch connection (opened lazily), and the store
// handle both share.
type sessionLife struct {
	fg *transport.Client
	bg *transport.Client
	st *store.Store
}

func (l *sessionLife) close() {
	if l.fg != nil {
		l.fg.Close()
	}
	if l.bg != nil {
		l.bg.Close()
	}
	if l.st != nil {
		l.st.Close()
	}
	l.fg, l.bg, l.st = nil, nil, nil
}

// runSession replays one session's scripted events. Errors are folded
// into the outcome as failures rather than aborting the pass: the gates
// in run() require zero of them, so nothing is silently dropped.
func runSession(cfg config, addr, storeRoot string, sess sessionTrace, mode passMode) passOutcome {
	var out passOutcome
	storeDir := ""
	if mode.store {
		storeDir = filepath.Join(storeRoot, fmt.Sprintf("sess-%03d", sess.ID))
	}
	openLife := func() (*sessionLife, error) {
		l := &sessionLife{}
		var err error
		if l.fg, err = transport.Dial(addr); err != nil {
			return nil, err
		}
		l.fg.Timeout = 10 * time.Second
		if storeDir != "" {
			if l.st, err = store.Open(storeDir, store.Options{MaxBytes: cfg.storeMB << 20}); err != nil {
				l.close()
				return nil, err
			}
			l.fg.Store = l.st
		}
		if mode.prefetch {
			if l.bg, err = transport.Dial(addr); err != nil {
				l.close()
				return nil, err
			}
			l.bg.Timeout = 10 * time.Second
			l.bg.Store = l.st
		}
		return l, nil
	}
	l, err := openLife()
	if err != nil {
		out.fail(err)
		return out
	}
	defer func() { l.close() }()

	prof, err := profile.New(profile.Config{MaxTerms: 64})
	if err != nil {
		out.fail(err)
		return out
	}
	gate := &prefetch.Gate{}
	// prefetchOpts is an idle window's fetch shape; foreground fetches use
	// the same plan-affecting options, so they seed from what it stored.
	prefetchOpts := func(doc string) transport.FetchOptions {
		return transport.FetchOptions{Doc: doc, Codec: cfg.codec}
	}
	var (
		hits      []transport.HitInfo
		lastQuery string
		bodies    = map[string][]byte{} // pre-kill reference bodies
		fullyRead = map[string]bool{}
		killed    bool
	)

	// foregroundFetch runs one read/skim under the gate (so any open
	// prefetch window yields the link first) and records its latency,
	// TTFU, and refetch accounting.
	foregroundFetch := func(doc string, stopAtIC float64) (*transport.FetchResult, error) {
		gate.ForegroundStart()
		defer gate.ForegroundEnd()
		t0 := time.Now()
		var ttfu time.Duration
		res, err := l.fg.Fetch(transport.FetchOptions{
			Doc:      doc,
			Caching:  true,
			StopAtIC: stopAtIC,
			Codec:    cfg.codec,
			OnProgress: func(p transport.Progress) {
				if ttfu == 0 && len(p.NewUnits) > 0 {
					ttfu = time.Since(t0)
				}
			},
		})
		lat := time.Since(t0)
		if ttfu == 0 {
			// Nothing arrived over the wire frame-by-frame — a store
			// resume renders everything at once; the whole (tiny) fetch
			// is the time to first useful unit.
			ttfu = lat
		}
		out.foreground = append(out.foreground, lat)
		if res != nil {
			out.refetched += res.RefetchedPackets
			out.stored += res.StoredPackets
			if killed {
				out.postTTFU = append(out.postTTFU, ttfu)
				if fullyRead[doc] {
					out.resumeBytes += res.BytesReceived
				}
			}
		}
		return res, err
	}

	for _, ev := range sess.Events {
		switch ev.Kind {
		case evSearch:
			lastQuery = ev.Query
			hs, err := l.fg.Search(ev.Query, 2*cfg.topk+2)
			if err != nil {
				out.fail(err)
				continue
			}
			hits = hs

		case evRead:
			res, err := foregroundFetch(ev.Doc, 0)
			if err != nil || res == nil || res.Body == nil {
				if err == nil {
					err = fmt.Errorf("read %s: no body", ev.Doc)
				}
				out.fail(err)
				continue
			}
			if ref, ok := bodies[ev.Doc]; ok && !bytes.Equal(ref, res.Body) {
				out.mismatches++
			}
			bodies[ev.Doc] = res.Body
			fullyRead[ev.Doc] = true
			prof.ObserveText(string(res.Body), lastQuery, true, 1.0)

		case evSkim:
			res, err := foregroundFetch(ev.Doc, ev.StopAtIC)
			if err != nil {
				out.fail(err)
				continue
			}
			// The user judged the document not worth reading on; the
			// skimmed fraction depresses its terms in the profile.
			if text := renderedText(res); text != "" {
				frac := res.InfoContent
				if frac > 1 {
					frac = 1
				}
				prof.ObserveText(text, lastQuery, false, frac)
			}

		case evIdle:
			if !mode.prefetch || l.bg == nil {
				continue
			}
			cands := predictCandidates(prof, hits, fullyRead, cfg.topk, ev.Budget)
			if len(cands) == 0 {
				continue
			}
			// Plan net of what the shared store already holds, whichever
			// window, foreground fetch or process life put it there.
			for i := range cands {
				cands[i].HavePackets = l.bg.Held(prefetchOpts(cands[i].Name))
			}
			sched := &prefetch.Scheduler{
				Gate: gate,
				Fetch: func(ctx context.Context, doc string, budget int) (int, error) {
					r, err := l.bg.PrefetchContext(ctx, prefetchOpts(doc), budget)
					return r.Received, err
				},
			}
			done := make(chan struct{})
			var wres prefetch.WindowResult
			go func() {
				defer close(done)
				wres, _ = sched.RunWindow(context.Background(), cands, ev.Budget)
			}()
			select {
			case <-done:
			case <-time.After(time.Duration(cfg.idleMs) * time.Millisecond):
				// The idle window closed with the prefetch still running:
				// the foreground claim cancels it, exactly as the next
				// user action would.
				gate.ForegroundStart()
				<-done
				gate.ForegroundEnd()
			}
			out.prefetchRx += wres.Received

		case evKill:
			// Process death: every handle drops, and optionally the
			// store's newest segment loses its tail mid-append.
			l.close()
			if storeDir != "" && ev.TornBytes > 0 {
				tornTruncate(storeDir, ev.TornBytes)
			}
			killed = true
			nl, err := openLife()
			if err != nil {
				out.fail(err)
				return out
			}
			l = nl

		default:
			out.fail(fmt.Errorf("unknown event kind %q", ev.Kind))
		}
	}
	return out
}

// renderedText concatenates the units a partial fetch delivered — the
// text the user actually skimmed.
func renderedText(res *transport.FetchResult) string {
	if res == nil {
		return ""
	}
	var b strings.Builder
	for _, u := range res.Rendered {
		b.WriteString(u.Text)
		b.WriteByte(' ')
	}
	return b.String()
}

// predictCandidates turns the last search's hits into the speculative
// shortlist: the profile re-scores each hit (search similarity blended
// with learned interest), PredictTopK picks the k best, and documents
// already read fully are excluded — there is nothing left to prefetch.
func predictCandidates(prof *profile.Profile, hits []transport.HitInfo, fullyRead map[string]bool, topk, budget int) []prefetch.Candidate {
	var pc []profile.Candidate
	for _, h := range hits {
		if fullyRead[h.Name] {
			continue
		}
		score := h.Score + 0.25*prof.ScoreText(h.Title)
		if score <= 0 {
			continue
		}
		pc = append(pc, profile.Candidate{Name: h.Name, Score: score})
	}
	preds := profile.PredictTopK(pc, topk)
	if len(preds) == 0 {
		return nil
	}
	perDoc := budget / len(preds)
	if perDoc < 4 {
		perDoc = 4
	}
	out := make([]prefetch.Candidate, len(preds))
	for i, p := range preds {
		out[i] = prefetch.Candidate{
			Name:          p.Name,
			Score:         p.Score,
			TotalPackets:  budget,
			UsefulPackets: perDoc,
		}
	}
	return out
}

// tornTruncate chops n bytes off the newest store segment — the torn
// tail a power loss leaves when the process dies mid-append. Recovery
// must absorb it; best-effort by design (a missing segment simply means
// the kill landed before the first flush).
func tornTruncate(dir string, n int) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	var segs []string
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".log") {
			segs = append(segs, name)
		}
	}
	if len(segs) == 0 {
		return
	}
	sort.Strings(segs)
	path := filepath.Join(dir, segs[len(segs)-1])
	info, err := os.Stat(path)
	if err != nil || info.Size() <= int64(n) {
		return
	}
	os.Truncate(path, info.Size()-int64(n))
}
