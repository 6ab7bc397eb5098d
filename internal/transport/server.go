package transport

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"mobweb/internal/core"
	"mobweb/internal/erasure"
	"mobweb/internal/fountain"
	"mobweb/internal/framecache"
	"mobweb/internal/obs"
	"mobweb/internal/planner"
	"mobweb/internal/search"
)

// ServerOptions tunes the document transmitter.
type ServerOptions struct {
	// Defaults are the plan parameters applied when a fetch request
	// leaves them unset, by the planner NewServer builds when Planner is
	// nil.
	Defaults core.Config
	// Planner, when non-nil, is a pre-built planning service (with its
	// own defaults and cache budgets); it overrides Defaults.
	Planner *planner.Planner
	// InjectorFactory, when set, emulates the wireless hop: it builds the
	// fault injector of each accepted connection. Returning one shared
	// injector puts every connection on one channel realisation; load
	// generators return a fresh one per connection, so every simulated
	// client has its own channel model without sharing mutable state
	// across goroutines. Nil means a clean channel.
	InjectorFactory func() FaultInjector
	// PacketDelay paces the stream (per frame), letting demos visualize
	// progressive rendering; zero sends at full speed.
	PacketDelay time.Duration
	// IdleTimeout closes connections with no request activity; zero
	// means 2 minutes.
	IdleTimeout time.Duration
	// Name identifies this replica in fetch responses (the Replica wire
	// field) and fetch-log records; empty leaves responses unnamed.
	Name string
	// Admission, when set, gates every fetch stream: new fetches are shed
	// (typed wire refusal with a retry-after hint) before in-flight
	// retransmission rounds are starved. Nil admits everything.
	Admission Admitter
	// Capability, when set, is the replica's live degraded-operation
	// tier; nil means CapFull. See Capability for what each tier serves.
	Capability *CapabilityState
	// Metrics, when set, receives the transmitter's connection, request
	// and frame counters, logs each served stream into the fetch log
	// behind /debug/fetches, and registers the planner/erasure/core
	// scrape-time probes. Nil disables server metrics at near-zero cost.
	Metrics *obs.Registry
	// DefaultCodec is the erasure codec applied when a fetch request does
	// not name one; the zero value is the fixed-rate Vandermonde codec.
	DefaultCodec erasure.CodecID
}

// Backend is what a Server transmits. The server owns the wire: the accept
// loop, each connection's request loop, admission, and the stream loop
// with its fault injection, flush policy, write deadlines, frame count and
// end-of-stream marker. A backend answers searches and, per admitted
// fetch, yields the response header and the frames behind it. NewServer's
// planner-backed transmitter is one backend; shard.Front, which relays
// the streams of a replica fleet, is the other.
type Backend interface {
	// Search answers a keyword query.
	Search(req Request) Response
	// Fetch opens one admitted fetch. A header that is not OK is a
	// terminal refusal and comes alone. An OK header comes with the source
	// of the frames that follow it and the fetch's end hook, which the
	// server calls exactly once when the frames are over — before it
	// writes the end-of-stream marker — with the number of frames it put
	// on the air and the error that cut the stream short, if one did.
	Fetch(req Request) (hdr Response, src FrameSource, end func(sent int, err error))
	// Shed is the refusal for a fetch the server's admitter turned away.
	Shed(req Request, retryAfter time.Duration) Response
}

// writeTimeout bounds each write that reaches a client connection: the
// 30 s the Client and the shard front default to for their own I/O.
const writeTimeout = 30 * time.Second

// Server is the wire side of Figure 1's server: it accepts connections,
// reads each one's control requests, gates fetches through the admitter
// and streams what its backend yields until the client says stop.
type Server struct {
	backend Backend
	// local is the planner-backed backend NewServer built (nil under
	// NewBackendServer); Engine, Layout and FrameStats read it.
	local        *transmitter
	opts         ServerOptions
	writeTimeout time.Duration
	sm           serverMetrics

	mu     sync.Mutex
	ln     net.Listener
	closed bool
	conns  map[net.Conn]bool
	wg     sync.WaitGroup
}

// NewServer wraps a search engine as a transmission server: the database
// gateway plus document transmitter of Figure 1, which indexes a document
// collection, answers keyword searches, and streams documents as
// QIC-ordered fault-tolerant packet sequences.
func NewServer(engine *search.Engine, opts ServerOptions) (*Server, error) {
	if engine == nil {
		return nil, fmt.Errorf("transport: nil engine")
	}
	pl := opts.Planner
	if pl == nil {
		var err error
		pl, err = planner.New(engine, planner.Options{Defaults: opts.Defaults})
		if err != nil {
			return nil, err
		}
	}
	if opts.Metrics != nil {
		// The probes surface stats that live in their own layers: the
		// planner's cache counters, the erasure codec's package-wide
		// dispatch counters, and the receiver decode
		// counters. They run at scrape time, outside the registry lock.
		opts.Metrics.RegisterProbe("planner", func() any { return pl.Stats() })
		opts.Metrics.RegisterProbe("framecache", func() any { return pl.FrameStats() })
		opts.Metrics.RegisterProbe("erasure", erasure.MetricsProbe)
		opts.Metrics.RegisterProbe("fountain", fountain.MetricsProbe)
		opts.Metrics.RegisterProbe("core", core.MetricsProbe)
		if opts.Capability != nil {
			// The shard front tier's health checker reads this probe off
			// /debug/metrics to aggregate the fleet's capability tiers.
			opts.Metrics.RegisterProbe("capability", opts.Capability.Probe)
		}
	}
	local := &transmitter{
		engine:  engine,
		planner: pl,
		opts:    opts,
		tm:      newTransmitterMetrics(opts.Metrics),
	}
	s := NewBackendServer(local, opts, writeTimeout)
	s.local = local
	return s, nil
}

// NewBackendServer serves the wire protocol over b. Of opts it reads what
// belongs to the wire — InjectorFactory, PacketDelay, IdleTimeout,
// Admission, Metrics; the rest configures NewServer's own backend.
// ioTimeout bounds each write to a client connection.
func NewBackendServer(b Backend, opts ServerOptions, ioTimeout time.Duration) *Server {
	if opts.IdleTimeout == 0 {
		opts.IdleTimeout = 2 * time.Minute
	}
	return &Server{
		backend:      b,
		opts:         opts,
		writeTimeout: ioTimeout,
		sm:           newServerMetrics(opts.Metrics),
		conns:        make(map[net.Conn]bool),
	}
}

// Engine is the document collection NewServer serves; nil under
// NewBackendServer.
func (s *Server) Engine() *search.Engine {
	if s.local == nil {
		return nil
	}
	return s.local.engine
}

// Layout is the geometry a fetch with opts gets from this server, decided
// as the fetch decides it — capability tier, default codec and plan,
// whose digest is the layout's seed — without opening a stream, so
// admission does not gate it. A fetch the server would refuse fails with
// the error the client's fetch returns. It needs NewServer's
// planner-backed server.
func (s *Server) Layout(opts FetchOptions) (core.Layout, error) {
	r, refusal := s.local.resolve(opts.request())
	if refusal.Error != "" {
		return core.Layout{}, respRefusal(refusal, "fetch")
	}
	return r.layout, nil
}

// FrameStats snapshots the shared cooked-frame cache's counters.
func (s *Server) FrameStats() framecache.Stats { return s.local.planner.FrameStats() }

// Serve accepts connections until Close; it always returns a non-nil
// error (ErrServerClosed after a clean shutdown).
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()

	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return err
		}
		if err := s.ServeConn(conn); err != nil {
			return err
		}
	}
}

// ServeConn serves one established connection in a goroutine of its own:
// a socket Serve accepted, or one end of a net.Pipe whose other end an
// in-process Client holds. The connection joins the live set, so Close
// reaps it like any other; after Close it is closed and refused with
// ErrServerClosed.
func (s *Server) ServeConn(conn net.Conn) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return ErrServerClosed
	}
	s.conns[conn] = true
	s.wg.Add(1)
	s.mu.Unlock()
	s.sm.connsAccepted.Inc()
	s.sm.connsActive.Add(1)
	go func() {
		defer s.wg.Done()
		s.handle(conn)
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
		s.sm.connsActive.Add(-1)
	}()
	return nil
}

// Close stops accepting, closes live connections, and waits for handlers
// to exit. Live connections are snapshotted under the lock but closed
// after releasing it: net.Conn.Close can block (lingering TCP teardown),
// and holding s.mu across it would stall every accept and handler-exit
// path that needs the mutex.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	// Shutdown closes every conn; close order is immaterial.
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

// ReadRequests decodes a connection's control lines into a channel from a
// dedicated goroutine, so that feedback arriving mid-stream can steer the
// stream promptly. The channel closes when the connection fails, a line
// does not parse or is longer than MaxControlLine; a last line cut short by
// the end of the connection still counts. done must be closed when the
// handler returns: it keeps the reader from blocking forever on a send
// nobody will receive (a write error mid-stream with a Request already
// parsed), which would otherwise leak one goroutine per failed connection.
func ReadRequests(conn net.Conn, done <-chan struct{}) <-chan Request {
	requests := make(chan Request)
	go func() {
		defer close(requests)
		r := getReader(conn)
		defer putReader(r)
		for {
			line, err := readLine(r)
			if len(line) == 0 {
				return
			}
			req, derr := DecodeRequest(line)
			if derr != nil {
				return
			}
			select {
			case requests <- req:
			case <-done:
				return
			}
			if err != nil {
				return
			}
		}
	}()
	return requests
}

// TimeoutConn arms a fresh deadline before every Read and Write that
// reaches the connection, so a peer that stops reading (or sending) cannot
// pin the goroutine using it — and, on the server, the admission slot
// that goroutine holds — for longer than Timeout.
type TimeoutConn struct {
	net.Conn
	Timeout time.Duration
}

// Read implements net.Conn, arming a read deadline Timeout from now first.
func (c TimeoutConn) Read(p []byte) (int, error) {
	if err := c.SetReadDeadline(time.Now().Add(c.Timeout)); err != nil {
		return 0, err
	}
	return c.Conn.Read(p)
}

// Write implements net.Conn, arming a write deadline Timeout from now first.
func (c TimeoutConn) Write(p []byte) (int, error) {
	if err := c.SetWriteDeadline(time.Now().Add(c.Timeout)); err != nil {
		return 0, err
	}
	return c.Conn.Write(p)
}

// handle runs one connection's request loop.
func (s *Server) handle(conn net.Conn) {
	var injector FaultInjector = NopInjector{}
	if s.opts.InjectorFactory != nil {
		injector = s.opts.InjectorFactory()
	}
	handlerDone := make(chan struct{})
	defer close(handlerDone)
	requests := ReadRequests(conn, handlerDone)

	// Only the write side goes through the timeout: reads belong to the
	// reader goroutine, under the idle deadline armed below.
	w := getWriter(TimeoutConn{Conn: conn, Timeout: s.writeTimeout})
	defer putWriter(w)
	for {
		if err := conn.SetReadDeadline(time.Now().Add(s.opts.IdleTimeout)); err != nil {
			return
		}
		req, ok := <-requests
		if !ok {
			return
		}
		var err error
		switch req.Op {
		case "stop", "stopgen", "more":
			// Stale feedback from a stream that already ended (it raced the
			// end-of-stream marker): dropped without a response, since the
			// client is not waiting for one.
			if req.Op == "more" {
				s.sm.reqMore.Inc()
			}
		case "search":
			s.sm.reqSearch.Inc()
			err = s.reply(w, s.backend.Search(req))
		case "fetch":
			s.sm.reqFetch.Inc()
			// The idle timer runs between requests only. The reader
			// goroutine stays in its Read for the whole stream, so a
			// deadline left armed would close the control channel, and
			// with it the stream, once the stream outlasts IdleTimeout.
			if err = conn.SetReadDeadline(time.Time{}); err == nil {
				err = s.fetch(w, conn, req, requests, injector)
			}
		default:
			s.sm.reqBad.Inc()
			err = s.reply(w, Response{Error: fmt.Sprintf("unknown op %q", req.Op)})
		}
		if err != nil {
			return
		}
	}
}

// reply writes one control response and flushes it.
func (s *Server) reply(w *bufio.Writer, resp Response) error {
	n, err := writeJSONLine(w, resp)
	s.sm.headerBytes.Add(int64(n))
	if err != nil {
		return err
	}
	return w.Flush()
}

// fetch serves one fetch request: admission, the backend's header, the
// stream behind it.
func (s *Server) fetch(w *bufio.Writer, conn net.Conn, req Request, requests <-chan Request, injector FaultInjector) error {
	// Admission control runs before any planning work: a shed request
	// must cost the server close to nothing. A non-empty Have list marks
	// a retransmission/resume round of an already-admitted fetch, which
	// draws on reserved headroom so new arrivals cannot starve it.
	if s.opts.Admission != nil {
		release, retryAfter, ok := s.opts.Admission.Admit(len(req.Have) > 0)
		if !ok {
			return s.reply(w, s.backend.Shed(req, retryAfter))
		}
		defer release()
	}
	hdr, src, end := s.backend.Fetch(req)
	if src == nil {
		return s.reply(w, hdr)
	}
	sent, err := 0, s.reply(w, hdr)
	if err == nil {
		sent, err = s.pump(w, src, requests, injector, hdr.Window(), conn)
	}
	end(sent, err)
	if err != nil {
		return err
	}
	if err := WriteEndOfStream(w); err != nil {
		return err
	}
	return w.Flush()
}

// DecodeRequest parses one JSON control line. It is the single entry
// point for untrusted control data (see FuzzRequestDecode).
func DecodeRequest(line []byte) (Request, error) {
	var req Request
	if err := json.Unmarshal(line, &req); err != nil {
		return Request{}, err
	}
	return req, nil
}

var _ io.Closer = (*Server)(nil)
