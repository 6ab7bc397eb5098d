package shard

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync/atomic"
	"time"

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

// frontMetrics holds the front tier's counter pointers, nil (and so
// disabled) under a nil registry. Connections, requests and relayed
// frames are counted by the shared server under its serve.* names.
type frontMetrics struct {
	fetches     *obs.Counter
	fetchErrors *obs.Counter
	sheds       *obs.Counter
	reroutes    *obs.Counter
	searches    *obs.Counter
	fetchLog    *obs.FetchLog
}

func newFrontMetrics(r *obs.Registry) frontMetrics {
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
// stream. When the serving replica dies mid-stream the front ends the
// client's stream; the client redials and resumes with its own Have
// list, and the front routes the resume like any new fetch. Frames are
// deterministic per (plan, seq) across replicas serving the same corpus,
// so the resumed stream continues the one the dead replica sent.
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

func (rc *replicaConn) close() { rc.conn.Close() }

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
	f.logFetch(req, "", 0, transport.ErrShed)
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
	rc, hdr, err := f.route(req)
	if rc == nil {
		f.logFetch(req, "", 0, err)
		return hdr, nil, nil
	}
	s := &relay{f: f, req: req, rc: rc, servedBy: f.opts.Replicas[rc.idx].Name}
	return hdr, s, s.end
}

// route walks the ring from the document's home — two passes, the second
// retrying replicas that failed on the first (a replica restarting
// mid-drill), with the seeded backoff between failed attempts — until a
// replica accepts the fetch, and returns its leg behind the header. A
// replica's refusal is the answer, returned with a nil leg (and,
// when no replica could even be asked, with the error that classes the
// fetch-log record). A resume is routed like any new fetch: the client's
// request carries its own Have, DoneGens and Seed.
func (f *Front) route(req transport.Request) (*replicaConn, transport.Response, error) {
	id := f.fetchSeq.Add(1)
	order := f.ring.Successors(req.Doc, nil)
	var rng *rand.Rand
	attempt := 0
	var lastDeg *transport.Response
	for try := 0; try < 2*len(order); try++ {
		idx := order[try%len(order)]
		if !f.mon.Usable(idx) {
			continue
		}
		if attempt > 0 {
			if rng == nil {
				rng = f.jitter(id)
			}
			time.Sleep(f.opts.Retry.Backoff(attempt-1, rng))
		}
		rc, resp, err := f.openStream(idx, req)
		if err != nil {
			f.mon.ReportFailure(idx)
			attempt++
			continue
		}
		name := f.opts.Replicas[idx].Name
		switch {
		case resp.OK && resp.Layout != nil:
			if resp.Replica == "" {
				resp.Replica = name
			}
			return rc, resp, nil
		case resp.Degraded:
			lastDeg = &resp
		case resp.OK:
			// A header without a layout: treat like a failed leg and walk on.
			attempt++
		default:
			// The replica's own refusal, relayed verbatim: a shed's
			// retry-after hint is the overloaded replica's, not the front's.
			rc.close()
			if !resp.Shed && resp.Replica == "" {
				resp.Replica = name
			}
			return nil, resp, nil
		}
		rc.close()
	}
	if lastDeg != nil {
		return nil, *lastDeg, nil
	}
	return nil, transport.Response{
		Error:      fmt.Sprintf("no replica available for %s", req.Doc),
		Degraded:   true,
		Capability: transport.CapDown.String(),
		Replica:    f.opts.Name,
	}, transport.ErrDegraded
}

// relay is one proxied fetch: a frame source that passes a replica leg's
// frames on as they come. It keeps no resume state. When the leg dies,
// the client's stream ends and the client resumes through the front.
type relay struct {
	f        *Front
	req      transport.Request
	rc       *replicaConn
	servedBy string
	ended    bool   // the serving replica's own end marker arrived
	buf      []byte // the current frame, reused for the next
}

// Next implements transport.FrameSource. The leg's bytes pass through
// unparsed: the front's server injects no faults, so it never reads
// Frame.Seq.
func (s *relay) Next(ctl <-chan transport.Request) (transport.Frame, transport.Request, error) {
	if creq, err := transport.PollControl(ctl); err != nil || creq.Op != "" {
		return transport.Frame{}, creq, err
	}
	frame, err := transport.ReadFrameInto(s.rc.r, s.buf)
	if err != nil {
		// The replica leg died mid-stream. The error ends the client's
		// stream and the server closes its connection; the client redials
		// and its resume, Have list and all, is routed like a new fetch.
		s.f.mon.ReportFailure(s.rc.idx)
		s.f.fm.reroutes.Inc()
		return transport.Frame{}, transport.Request{}, fmt.Errorf("shard: leg to %s for %s: %v: %w", s.servedBy, s.req.Doc, err, transport.ErrReroute)
	}
	if frame == nil {
		s.ended = true
		return transport.Frame{}, transport.Request{}, nil
	}
	s.buf = frame
	return transport.Frame{Bytes: frame}, transport.Request{}, nil
}

// Feedback implements transport.FrameSource: the replica decides what a
// stopgen means for this stream's codec, and a grant extends the leg's
// window as the loop above extended the client's. Best effort: a leg that
// cannot take the feedback is about to fail its next read.
func (s *relay) Feedback(creq transport.Request) error {
	_ = s.rc.send(transport.Request{Op: creq.Op, Gen: creq.Gen, Frames: creq.Frames})
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
	s.f.logFetch(s.req, s.servedBy, sent, err)
	if err != nil {
		s.f.fm.fetchErrors.Inc()
	}
}

// logFetch records one proxied fetch into the front's fetch log.
func (f *Front) logFetch(req transport.Request, replica string, sent int, err error) {
	f.fm.fetchLog.Record(obs.FetchRecord{
		Doc:     req.Doc,
		Origin:  "front",
		Err:     transport.ErrorClass(err),
		Replica: replica,
		Sent:    sent,
		Have:    len(req.Have),
	})
}

var (
	_ io.Closer         = (*Front)(nil)
	_ transport.Backend = (*Front)(nil)
)
