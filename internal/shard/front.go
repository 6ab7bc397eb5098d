package shard

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sort"
	"sync/atomic"
	"time"

	"mobweb/internal/core"
	"mobweb/internal/obs"
	"mobweb/internal/transport"
)

// Options tunes the front tier.
type Options struct {
	// Name identifies the front in its own shed responses and fetch-log
	// records.
	Name string
	// Replicas is the backend fleet, hashed onto the ring by name.
	Replicas []Replica
	// VNodes is the virtual-node count per replica; zero means
	// DefaultVNodes.
	VNodes int
	// Gate is the front tier's admission budget — the fleet-aggregate
	// guard, on top of each replica's own gate.
	Gate GateOptions
	// Monitor tunes the health checker.
	Monitor MonitorOptions
	// Retry shapes the backoff between replica re-dial attempts on the
	// failover path. Retry.Seed makes the jittered schedule reproducible
	// under the chaos harness, exactly as it does for the client.
	Retry transport.RetryPolicy
	// DialTimeout bounds one replica dial; zero means 2 s.
	DialTimeout time.Duration
	// IOTimeout bounds each replica read and write and each client write;
	// zero means 30 s.
	IOTimeout time.Duration
	// IdleTimeout closes client connections with no request activity;
	// zero means 2 minutes.
	IdleTimeout time.Duration
	// Metrics, when set, receives the front's counters (front.fetches,
	// front.sheds, front.reroutes, front.markdowns, ...), the shared
	// server's (serve.conns_accepted, serve.frames_out, ...), the fetch
	// log, and the "replicas" / "capability" probes on /debug/metrics.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.Name == "" {
		o.Name = "front"
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.IOTimeout <= 0 {
		o.IOTimeout = 30 * time.Second
	}
	return o
}

// frontMetrics holds the front tier's counter pointers; the zero value
// disables them. Connections, requests and relayed frames are counted by
// the shared server under its serve.* names.
type frontMetrics struct {
	fetches     *obs.Counter
	fetchErrors *obs.Counter
	sheds       *obs.Counter
	reroutes    *obs.Counter
	searches    *obs.Counter
	fetchLog    *obs.FetchLog
}

func newFrontMetrics(r *obs.Registry) frontMetrics {
	if r == nil {
		return frontMetrics{}
	}
	return frontMetrics{
		fetches:     r.Counter("front.fetches"),
		fetchErrors: r.Counter("front.fetch_errors"),
		sheds:       r.Counter("front.sheds"),
		reroutes:    r.Counter("front.reroutes"),
		searches:    r.Counter("front.searches"),
		fetchLog:    r.FetchLog(),
	}
}

// Front is the fleet's entry point: a transport.Server whose backend,
// instead of planning and cooking, consistent-hashes each fetch's
// canonical document ID onto the replica ring and relays that replica's
// stream — and, when the serving replica dies mid-stream, replays the
// fetch against the next replica on the ring with the client's Have list
// extended by every frame already relayed intact. Frames are
// deterministic per (plan, seq) across replicas serving the same corpus,
// so the re-routed stream is byte-identical to the one the dead replica
// would have finished.
type Front struct {
	opts Options
	ring *Ring
	mon  *Monitor
	gate *Gate
	fm   frontMetrics
	srv  *transport.Server

	monCtx    context.Context
	monCancel context.CancelFunc

	fetchSeq atomic.Int64
}

// NewFront builds a front over the replica fleet. The health monitor
// starts probing when Serve is called.
func NewFront(opts Options) (*Front, error) {
	opts = opts.withDefaults()
	if len(opts.Replicas) == 0 {
		return nil, fmt.Errorf("shard: front needs at least one replica")
	}
	names := make([]string, len(opts.Replicas))
	for i, r := range opts.Replicas {
		names[i] = r.Name
		if r.Addr == "" {
			return nil, fmt.Errorf("shard: replica %q has no address", r.Name)
		}
	}
	ring, err := NewRing(names, opts.VNodes)
	if err != nil {
		return nil, err
	}
	mopts := opts.Monitor
	if mopts.Metrics == nil {
		mopts.Metrics = opts.Metrics
	}
	f := &Front{
		opts: opts,
		ring: ring,
		mon:  NewMonitor(opts.Replicas, mopts),
		gate: NewGate(opts.Gate),
		fm:   newFrontMetrics(opts.Metrics),
	}
	f.srv = transport.NewBackendServer(f, transport.ServerOptions{
		Admission:   f.gate,
		IdleTimeout: opts.IdleTimeout,
		Metrics:     opts.Metrics,
	}, opts.IOTimeout)
	f.monCtx, f.monCancel = context.WithCancel(context.Background())
	opts.Metrics.RegisterProbe("capability", func() any {
		return map[string]string{"mode": f.mon.Aggregate().String()}
	})
	return f, nil
}

// Monitor exposes the front's health checker (tests step it directly).
func (f *Front) Monitor() *Monitor { return f.mon }

// Gate exposes the front tier's admission gate.
func (f *Front) Gate() *Gate { return f.gate }

// Serve accepts client connections until Close, with the health monitor
// probing in the background; it always returns a non-nil error
// (transport.ErrServerClosed after a clean shutdown).
func (f *Front) Serve(ln net.Listener) error {
	go f.mon.Run(f.monCtx)
	return f.srv.Serve(ln)
}

// Close stops the health monitor and the server: no more accepts, live
// client connections closed, handlers waited for.
func (f *Front) Close() error {
	f.monCancel()
	return f.srv.Close()
}

// jitter builds a per-fetch backoff source: a non-zero Retry.Seed yields
// a schedule determined by (seed, fetch arrival order), so chaos runs
// replay identical failover timing; a zero seed draws fresh per-fetch
// randomness.
func (f *Front) jitter(fetchID int64) *rand.Rand {
	seed := f.opts.Retry.Seed
	if seed != 0 {
		seed += fetchID
	}
	return transport.JitterSource(seed)
}

// replicaConn is one proxied stream's backend leg; every read and write
// on it runs under Options.IOTimeout.
type replicaConn struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	idx  int
}

func (rc *replicaConn) close() {
	if rc != nil {
		rc.conn.Close()
	}
}

// send writes one control record to the replica and flushes it.
func (rc *replicaConn) send(req transport.Request) error {
	if err := transport.WriteRequest(rc.w, req); err != nil {
		return err
	}
	return rc.w.Flush()
}

// openStream dials a replica, sends the fetch request and reads the
// response header. Any failure closes the leg and returns the error.
func (f *Front) openStream(idx int, req transport.Request) (*replicaConn, transport.Response, error) {
	d := net.Dialer{Timeout: f.opts.DialTimeout}
	raw, err := d.Dial("tcp", f.opts.Replicas[idx].Addr)
	if err != nil {
		return nil, transport.Response{}, err
	}
	conn := transport.TimeoutConn{Conn: raw, Timeout: f.opts.IOTimeout}
	rc := &replicaConn{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn), idx: idx}
	var resp transport.Response
	if err = rc.send(req); err == nil {
		resp, err = transport.ReadResponse(rc.r)
	}
	if err != nil {
		rc.close()
		return nil, transport.Response{}, err
	}
	return rc, resp, nil
}

// Search implements transport.Backend: the keyword query goes to the
// first usable replica in ring order from the query's own hash (spreading
// search load across the fleet), failing over on connection errors.
func (f *Front) Search(req transport.Request) transport.Response {
	f.fm.searches.Inc()
	order := f.ring.Successors(req.Query, nil)
	var lastErr error
	for _, idx := range order {
		if !f.mon.Usable(idx) {
			continue
		}
		rc, resp, err := f.openStream(idx, req)
		if err != nil {
			f.mon.ReportFailure(idx)
			lastErr = err
			continue
		}
		rc.close()
		if resp.Replica == "" {
			resp.Replica = f.opts.Replicas[idx].Name
		}
		return resp
	}
	resp := transport.Response{
		Error:      "no replica available for search",
		Degraded:   true,
		Capability: transport.CapDown.String(),
		Replica:    f.opts.Name,
	}
	if lastErr != nil {
		resp.Error = fmt.Sprintf("no replica available for search: %v", lastErr)
	}
	return resp
}

// Shed implements transport.Backend: the front tier's own refusal, on top
// of whatever each replica's gate decides.
func (f *Front) Shed(req transport.Request, retryAfter time.Duration) transport.Response {
	f.fm.fetches.Inc()
	f.fm.sheds.Inc()
	f.logFetch(req, "", 0, 0, transport.ErrShed)
	return transport.Response{
		Error:        "load shed: front fetch budget exhausted",
		Shed:         true,
		RetryAfterMS: int(retryAfter / time.Millisecond),
		Replica:      f.opts.Name,
	}
}

// Fetch implements transport.Backend: the header is the first willing
// replica's (or the refusal that stands in for it), the source a relay of
// that replica's frames.
func (f *Front) Fetch(req transport.Request) (transport.Response, transport.FrameSource, func(int, error)) {
	f.fm.fetches.Inc()
	s := &relay{
		f:        f,
		req:      req,
		id:       f.fetchSeq.Add(1),
		order:    f.ring.Successors(req.Doc, nil),
		held:     intSet(req.Have),
		doneGens: intSet(req.DoneGens),
	}
	hdr, err := s.open()
	if s.rc == nil {
		f.logFetch(req, "", 0, 0, err)
		return hdr, nil, nil
	}
	return hdr, s, s.end
}

// intSet and sortedKeys move the resume state a re-routed request carries
// between wire lists and the sets the relay grows: Have is the client's
// own list plus every sequence number relayed intact, DoneGens the
// generations it has reported decoded.
func intSet(vals []int) map[int]bool {
	set := make(map[int]bool, len(vals))
	for _, v := range vals {
		set[v] = true
	}
	return set
}

func sortedKeys(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// relay is one proxied fetch: a frame source that reads from a replica
// leg and, when the leg dies, re-routes to the next replica on the ring
// without the stream loop above it noticing.
type relay struct {
	f     *Front
	req   transport.Request
	id    int64
	order []int
	// try is the position in the two-pass walk over order; attempt counts
	// consecutive failed tries and drives the seeded backoff.
	try, attempt int
	rng          *rand.Rand

	// held is the client's own Have list plus every frame that passed its
	// CRC here, doneGens the generations the client reported decoded (in
	// the request or by stopgen): the resume state a re-routed request
	// carries, since the client will not repeat itself.
	held, doneGens map[int]bool

	rc     *replicaConn // live leg; nil before the first header and after a failed re-route
	layout core.Layout  // the first header's, which every later leg must match
	// owed is what the client is still owed on a metered stream: the first
	// header's window and every grant, less the frames relayed. The stream
	// loop above meters the client's side; a re-routed leg is topped up to
	// this.
	owed     int
	servedBy string
	reroutes int
	ended    bool   // the serving replica's own end marker arrived
	buf      []byte // the current frame, reused for the next
}

// open walks the ring from where the last leg left off — two passes, the
// second retrying replicas that failed on the first (a replica restarting
// mid-drill), with the seeded backoff between failed attempts — until a
// replica accepts the fetch, leaving s.rc behind its header. Before the
// first header a replica's refusal is the answer, returned with s.rc nil
// (and, when no replica could even be asked, with the error that classes
// the fetch-log record). After it only an error ends the walk: the stream
// cannot be finished on any replica, the client connection is closed on
// purpose, and the client's own redial/resume path takes over with its
// Have list intact.
func (s *relay) open() (transport.Response, error) {
	f := s.f
	started := s.servedBy != ""
	var lastDeg *transport.Response
	for ; s.try < 2*len(s.order); s.try++ {
		idx := s.order[s.try%len(s.order)]
		if !started && !f.mon.Usable(idx) {
			continue
		}
		if s.attempt > 0 {
			if s.rng == nil {
				s.rng = f.jitter(s.id)
			}
			time.Sleep(f.opts.Retry.Backoff(s.attempt-1, s.rng))
		}
		rreq := s.req
		rreq.Have = sortedKeys(s.held)
		rreq.DoneGens = sortedKeys(s.doneGens)
		rc, resp, err := f.openStream(idx, rreq)
		if err != nil {
			f.mon.ReportFailure(idx)
			s.attempt++
			continue
		}
		name := f.opts.Replicas[idx].Name
		switch {
		case resp.OK && resp.Layout != nil:
			if !started {
				s.layout, s.owed = *resp.Layout, resp.Window()
				if s.req.Seed != s.layout.Seed {
					// The client's Have and DoneGens name another stream,
					// which the replica ignored; a re-routed leg must not
					// replay them against this one.
					clear(s.held)
					clear(s.doneGens)
				}
				s.req.Seed = s.layout.Seed
				if resp.Replica == "" {
					resp.Replica = name
				}
			} else if resp.Layout.N() != s.layout.N() || s.layout.SameStream(*resp.Layout) != nil {
				// The replicas disagree on the stream (corpus drift, which
				// changes the seed, another γ or generation split): the
				// relayed prefix and this stream cannot be mixed.
				rc.close()
				return transport.Response{}, fmt.Errorf("shard: layout changed across re-route for %s: %w", s.req.Doc, transport.ErrReroute)
			}
			if w := resp.Window(); started && w > 0 && w < s.owed {
				// The new leg's window is its own plan's; the client is
				// owed what the old leg still owed it. Best effort, like
				// all leg feedback: a leg that cannot take it fails its
				// next read.
				_ = rc.send(transport.Request{Op: "more", Frames: s.owed - w})
			}
			s.rc, s.servedBy, s.attempt = rc, name, 0
			s.try++
			return resp, nil
		case resp.Degraded:
			lastDeg = &resp
		case resp.OK, started:
			// A header without a layout, or a resume round shed or refused
			// mid-re-route: treat like a failed leg and walk on.
			s.attempt++
		default:
			// The replica's own refusal, relayed verbatim: a shed's
			// retry-after hint is the overloaded replica's, not the front's.
			rc.close()
			if !resp.Shed && resp.Replica == "" {
				resp.Replica = name
			}
			return resp, nil
		}
		rc.close()
	}
	switch {
	case started:
		return transport.Response{}, fmt.Errorf("shard: every replica failed mid-stream for %s: %w", s.req.Doc, transport.ErrReroute)
	case lastDeg != nil:
		return *lastDeg, nil
	}
	return transport.Response{
		Error:      fmt.Sprintf("no replica available for %s", s.req.Doc),
		Degraded:   true,
		Capability: transport.CapDown.String(),
		Replica:    f.opts.Name,
	}, transport.ErrDegraded
}

// Next implements transport.FrameSource.
func (s *relay) Next(ctl <-chan transport.Request) (transport.Frame, transport.Request, error) {
	if creq, err := transport.PollControl(ctl); err != nil || creq.Op != "" {
		return transport.Frame{}, creq, err
	}
	for {
		frame, err := transport.ReadFrameInto(s.rc.r, s.buf)
		if err != nil {
			// The replica leg died mid-stream: re-route to the next ring
			// replica, replaying everything held.
			s.f.mon.ReportFailure(s.rc.idx)
			s.f.fm.reroutes.Inc()
			s.reroutes++
			s.attempt++
			s.rc.close()
			s.rc = nil
			if _, err := s.open(); err != nil {
				return transport.Frame{}, transport.Request{}, err
			}
			continue
		}
		if frame == nil {
			s.ended = true
			return transport.Frame{}, transport.Request{}, nil
		}
		s.buf = frame
		s.owed--
		// Only frames that pass their CRC here count as held by the
		// client: a frame corrupted on the replica's (emulated) weak link
		// must stay eligible for retransmission after a re-route.
		seq, _, perr := s.layout.ParseFrame(frame)
		if perr == nil {
			s.held[seq] = true
		}
		return transport.Frame{Bytes: frame, Seq: seq}, transport.Request{}, nil
	}
}

// Feedback implements transport.FrameSource: the replica decides what a
// stopgen means for this stream's codec, and a grant extends the leg's
// window as the loop above extended the client's.
func (s *relay) Feedback(creq transport.Request) error {
	fwd := transport.Request{Op: creq.Op, Gen: creq.Gen, Frames: creq.Frames}
	if creq.Op == "stopgen" {
		s.doneGens[creq.Gen] = true
	} else {
		s.owed += creq.Frames
	}
	// Best effort: a leg that cannot take the feedback is about to fail
	// its next read, and the re-route replays it — DoneGens, and the
	// top-up to what the client is owed.
	_ = s.rc.send(fwd)
	return nil
}

// SelfPaced implements transport.FrameSource: frames go out as the
// replica sends them.
func (s *relay) SelfPaced() bool { return true }

// end is the fetch's end hook: it lets go of the replica leg and writes
// the front's fetch-log record.
func (s *relay) end(sent int, err error) {
	if err == nil && !s.ended {
		// The client said stop. Pass it on and drain to the replica's own
		// end marker, so the replica finishes (and logs) a stopped stream
		// rather than a vanished client.
		_ = s.rc.send(transport.Request{Op: "stop"})
		for {
			frame, rerr := transport.ReadFrameInto(s.rc.r, s.buf)
			if rerr != nil || frame == nil {
				break
			}
		}
	}
	s.rc.close()
	s.f.logFetch(s.req, s.servedBy, s.reroutes, sent, err)
	if err != nil {
		s.f.fm.fetchErrors.Inc()
	}
}

// logFetch records one proxied fetch into the front's fetch log.
func (f *Front) logFetch(req transport.Request, replica string, reroutes, sent int, err error) {
	f.fm.fetchLog.Record(obs.FetchRecord{
		Doc:      req.Doc,
		Origin:   "front",
		Err:      transport.ErrorClass(err),
		Replica:  replica,
		Reroutes: reroutes,
		Sent:     sent,
		Have:     len(req.Have),
	})
}

var (
	_ io.Closer         = (*Front)(nil)
	_ transport.Backend = (*Front)(nil)
)
