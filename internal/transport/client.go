package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"time"

	"mobweb/internal/content"
	"mobweb/internal/core"
	"mobweb/internal/document"
	"mobweb/internal/erasure"
	"mobweb/internal/ewma"
	"mobweb/internal/obs"
	"mobweb/internal/store"
)

// RetryPolicy bounds the client's reconnection behaviour after a
// mid-fetch connection failure: up to MaxAttempts consecutive redials
// with exponential backoff from BaseDelay, capped at MaxDelay, each wait
// jittered so a herd of clients recovering from the same outage does not
// redial in lockstep.
//
// The zero value means "use the defaults" (4 attempts, 50 ms base, 2 s
// cap) whenever the client has a redial function (i.e. it came from
// Dial or SetRedial was called). Use NoRetry to disable reconnection.
type RetryPolicy struct {
	// MaxAttempts caps consecutive redial attempts per disconnect; zero
	// means 4, negative disables reconnection.
	MaxAttempts int
	// BaseDelay is the wait before the first redial; zero means 50 ms.
	BaseDelay time.Duration
	// MaxDelay caps the exponentially growing wait; zero means 2 s.
	MaxDelay time.Duration
	// Seed, when non-zero, makes the jittered backoff sequence
	// deterministic: chaos tests and the seeded load generator replay
	// identical reconnect timing run after run. Zero draws a fresh
	// per-client seed, preserving the herd-avoidance spread.
	Seed int64
}

// NoRetry disables reconnection: the first connection failure is
// terminal, the pre-resilience stock behaviour.
var NoRetry = RetryPolicy{MaxAttempts: -1}

func (p RetryPolicy) enabled() bool { return p.MaxAttempts >= 0 }

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay == 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay == 0 {
		p.MaxDelay = 2 * time.Second
	}
	return p
}

// Backoff returns the jittered wait before redial attempt (0-based):
// exponential growth from BaseDelay capped at MaxDelay, with full jitter
// over the upper half of the window. rng is the caller's seeded source
// (see JitterSource); the policy holds no state, so the shard front
// tier's multi-address re-dial path replays the exact schedule a seeded
// client would.
func (p RetryPolicy) Backoff(attempt int, rng *rand.Rand) time.Duration {
	p = p.withDefaults()
	delay := p.BaseDelay
	for i := 0; i < attempt && delay < p.MaxDelay; i++ {
		delay *= 2
	}
	if delay > p.MaxDelay {
		delay = p.MaxDelay
	}
	return jitterWait(delay, rng)
}

// JitterSource returns the seeded randomness feeding Backoff: a fixed
// seed replays identical schedules run after run (chaos soaks, the
// seeded load generator); zero draws a fresh per-caller seed, preserving
// the herd-avoidance spread.
func JitterSource(seed int64) *rand.Rand {
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return rand.New(rand.NewSource(seed))
}

// jitterWait spreads one backoff wait over the upper half of its window.
func jitterWait(delay time.Duration, rng *rand.Rand) time.Duration {
	return delay/2 + time.Duration(rng.Int63n(int64(delay/2)+1))
}

const (
	// defaultAlphaWeight is the EWMA smoothing weight for the client's
	// channel-quality estimator when FetchOptions.AdaptGamma is set.
	defaultAlphaWeight = 0.3
	// defaultTargetSuccess is the per-round reconstruction probability
	// adaptive γ aims for when FetchOptions.TargetSuccess is zero.
	defaultTargetSuccess = 0.95
	// maxAdaptiveAlpha caps the α fed to the negative-binomial solver;
	// beyond it the required γ exceeds the dispersal limit anyway.
	maxAdaptiveAlpha = 0.9
	// gammaSteps quantizes adaptive γ to 1/gammaSteps increments so the
	// server's plan cache is not churned by microscopic γ changes.
	gammaSteps = 20
)

// Client is the mobile-side half of Figure 1: the sequence manager that
// verifies, orders and caches cooked packets, plus hooks for a rendering
// manager to display units progressively. A Client owns one connection
// and is not safe for concurrent use.
type Client struct {
	conn net.Conn
	// r and w are the connection's buffers, taken from the pools when an
	// operation first does I/O and handed back when it ends (see release).
	r *bufio.Reader
	w *bufio.Writer
	// Timeout bounds each network read and write; zero means 30 seconds.
	Timeout time.Duration
	// Retry bounds reconnection after mid-fetch connection failures; the
	// zero value enables it with defaults when a redial function exists
	// (see RetryPolicy, NoRetry).
	Retry RetryPolicy
	// jitter is the client's own backoff randomness, seeded from
	// Retry.Seed (lazily, on first reconnect). The global math/rand
	// source is never used: reconnect timing must be replayable under a
	// seed (TestBackoffSeedDeterministic).
	jitter *rand.Rand
	// Alpha estimates the channel corruption probability from observed
	// corrupted/received windows (§4.4). It is created lazily on the
	// first AdaptGamma fetch and persists across fetches — α is a
	// property of the channel, not of one document. Callers may install
	// a shared or differently-weighted estimator before fetching.
	Alpha *ewma.Estimator
	// Metrics, when set, receives the client-side fetch counters (rounds,
	// reconnects, packet totals, live α/γ gauges) and feeds finished
	// fetches into the registry's fetch log. Nil disables client metrics;
	// the instrumented paths then cost one nil check per event.
	Metrics *obs.Registry
	// cm caches the metric pointers resolved from Metrics; cmFrom detects
	// a swapped registry (see metrics()).
	cm     clientMetrics
	cmFrom *obs.Registry
	// redial re-establishes the transport connection after a failure;
	// nil means reconnection is unavailable (NewClient without
	// SetRedial).
	redial func() (net.Conn, error)
	// dirty marks a connection whose last operation ended before reading
	// all of its reply: the next operation starts on a fresh one (resync).
	dirty bool
	// Store is the client's packet state: every fetch seeds its first
	// round from it, caching fetches and prefetches drain every round back
	// to it. A store opened on a directory carries that state across
	// process lives, so a restarted client resumes with its Have/DoneGens
	// lists instead of refetching bytes the radio already delivered.
	// Prefetch installs a memory-only store when none is set; nil
	// otherwise keeps no packets between fetches.
	Store *store.Store
}

// Dial connects to a transmission server. The address is kept as the
// client's redial target, so fetches survive connection death (§4.2's
// retransmission semantics extended across connections).
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	c := NewClient(conn)
	c.redial = func() (net.Conn, error) { return net.Dial("tcp", addr) }
	return c, nil
}

// NewClient wraps an existing connection (e.g. a net.Pipe end in tests).
// A client built this way cannot reconnect until SetRedial is called.
func NewClient(conn net.Conn) *Client {
	return &Client{conn: conn}
}

// SetRedial installs the function used to re-establish the connection
// after a mid-fetch failure (Dial installs one automatically).
func (c *Client) SetRedial(redial func() (net.Conn, error)) { c.redial = redial }

// Close releases the connection.
func (c *Client) Close() error { return c.conn.Close() }

// jitterSource returns the client's own backoff randomness, created on
// first use from Retry.Seed; never the global source.
func (c *Client) jitterSource() *rand.Rand {
	if c.jitter == nil {
		c.jitter = JitterSource(c.Retry.Seed)
	}
	return c.jitter
}

// deadline computes the per-operation I/O deadline: the read/write
// timeout, tightened by the context's own deadline when that is sooner.
func (c *Client) deadline(ctx context.Context) time.Time {
	t := c.Timeout
	if t == 0 {
		t = 30 * time.Second
	}
	d := time.Now().Add(t)
	if cd, ok := ctx.Deadline(); ok && cd.Before(d) {
		d = cd
	}
	return d
}

// armInterrupt makes ctx cancellation interrupt in-flight reads and
// writes on the current connection by poisoning its deadlines; the
// returned stop function releases the watcher. The interrupted operation
// surfaces a timeout, which callers treat as a connection failure.
func (c *Client) armInterrupt(ctx context.Context) func() {
	if ctx.Done() == nil {
		return func() {}
	}
	conn := c.conn
	stop := context.AfterFunc(ctx, func() {
		past := time.Unix(1, 0)
		conn.SetReadDeadline(past)
		conn.SetWriteDeadline(past)
	})
	return func() { stop() }
}

// ctxErr maps an I/O error caused by a context interrupt back to the
// context's own error, so callers see context.Canceled rather than the
// poisoned-deadline timeout armInterrupt produces. A read deadline is
// capped at the context's deadline, so the I/O can time out a moment
// before the context's own timer marks it done: past its deadline, the
// context is waited for.
func ctxErr(ctx context.Context, err error) error {
	if err == nil {
		return nil
	}
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		<-ctx.Done()
	}
	if ctx.Err() != nil {
		return fmt.Errorf("transport: interrupted: %w", ctx.Err())
	}
	return err
}

// buffers gives the client its connection buffers for the operation
// running, from the pools unless it still holds them.
func (c *Client) buffers() {
	if c.r == nil {
		c.r, c.w = getReader(c.conn), getWriter(c.conn)
	}
}

// release ends an operation: it hands the connection buffers back to the
// pools, unless they hold bytes that belong to the connection's next read
// or write.
func (c *Client) release() {
	if c.r == nil || c.r.Buffered() > 0 || c.w.Buffered() > 0 {
		return
	}
	putReader(c.r)
	putWriter(c.w)
	c.r, c.w = nil, nil
}

// send writes one control record under a write deadline, so a wedged
// peer (or dead link with full TCP buffers) cannot block forever, and
// returns its bytes on the wire.
func (c *Client) send(ctx context.Context, req Request) (int, error) {
	c.buffers()
	if err := c.conn.SetWriteDeadline(c.deadline(ctx)); err != nil {
		return 0, err
	}
	n, err := writeRequest(c.w, &req)
	if err != nil {
		return 0, err
	}
	return n, c.w.Flush()
}

// armRead sets the next read's deadline, then looks at ctx: a cancellation
// that came first is seen here, a later one poisons the deadline just set
// (armInterrupt). Looking first would let one in between be overwritten.
func (c *Client) armRead(ctx context.Context) error {
	if err := c.conn.SetReadDeadline(c.deadline(ctx)); err != nil {
		return err
	}
	return ctx.Err()
}

// readResponse reads one control response under a read deadline and
// returns its length on the wire with it.
func (c *Client) readResponse(ctx context.Context) (Response, int, error) {
	c.buffers()
	if err := c.armRead(ctx); err != nil {
		return Response{}, 0, err
	}
	return readResponse(c.r)
}

// respRefusal maps a server refusal to its typed error: shed and
// degraded refusals become errors matchable with errors.Is against
// ErrShed / ErrDegraded, so callers walk the fallback tree (retry later,
// pick another replica, drop prefetch traffic) instead of string
// matching.
func respRefusal(resp Response, op string) error {
	switch {
	case resp.Shed:
		return &ShedError{RetryAfter: time.Duration(resp.RetryAfterMS) * time.Millisecond}
	case resp.Degraded:
		tier := resp.Capability
		if tier == "" {
			tier = "degraded"
		}
		return fmt.Errorf("transport: %s refused by %s replica: %w", op, tier, ErrDegraded)
	default:
		return fmt.Errorf("transport: %s: %w", op, refusal(resp.Error))
	}
}

// refusal is the serving tier's reason for turning a request down on the
// request's own account: a document it does not hold, a parameter it
// cannot plan. ErrorClass calls it "refused".
type refusal string

func (r refusal) Error() string { return string(r) }

// reconnect redials after a connection failure with exponential backoff
// and jitter, replacing the client's connection and buffers. The dead
// connection is closed first so server-side resources unwind. The fetch
// machine asks for it only when the client has a redial function and its
// policy allows reconnection.
func (c *Client) reconnect(ctx context.Context) error {
	c.conn.Close()
	p := c.Retry.withDefaults()
	var lastErr error
	for attempt := 0; attempt < p.MaxAttempts; attempt++ {
		// The backoff timer sleeps wall-clock time; its duration is seed-driven.
		timer := time.NewTimer(p.Backoff(attempt, c.jitterSource()))
		select {
		case <-ctx.Done():
			timer.Stop()
			return ctx.Err()
		case <-timer.C:
		}
		if lastErr = c.redialOnce(); lastErr == nil {
			return nil
		}
	}
	if lastErr == nil {
		lastErr = errors.New("no attempts made")
	}
	return fmt.Errorf("transport: redial failed after %d attempts: %w: %w", p.MaxAttempts, ErrDisconnected, lastErr)
}

// redialOnce makes a fresh connection the client's, with the buffers it
// holds reset onto it.
func (c *Client) redialOnce() error {
	conn, err := c.redial()
	if err != nil {
		return err
	}
	c.conn, c.dirty = conn, false
	if c.r != nil {
		c.r.Reset(conn)
		c.w.Reset(conn)
	}
	return nil
}

// resync closes a dirty connection and redials once, so the rest of an
// earlier reply is never read as this one's; it drains nothing, so a done
// context cannot stall it. Without a redial function it fails with
// ErrDisconnected; a failed redial returns the dial's error.
func (c *Client) resync() error {
	if !c.dirty {
		return nil
	}
	c.conn.Close()
	if c.redial == nil {
		return fmt.Errorf("transport: connection left mid-reply: %w", ErrDisconnected)
	}
	return c.redialOnce()
}

// isConnError reports whether err looks like a transport/connection
// failure worth reconnecting over, as opposed to a protocol-level error
// (bad Response, server-reported failure) that a new connection cannot
// fix.
func isConnError(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrBadResponse) {
		return false
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
		return true
	}
	var nerr net.Error
	return errors.As(err, &nerr)
}

// HitInfo is one search result.
type HitInfo struct {
	// Name and Title identify the document; Score is its query
	// similarity.
	Name, Title string
	Score       float64
}

// Search runs a keyword query on the server.
func (c *Client) Search(query string, limit int) ([]HitInfo, error) {
	return c.SearchContext(context.Background(), query, limit)
}

// SearchContext is Search bounded by a context: cancellation interrupts
// an in-flight network operation.
func (c *Client) SearchContext(ctx context.Context, query string, limit int) ([]HitInfo, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("transport: interrupted: %w", err)
	}
	defer c.release()
	if err := c.resync(); err != nil {
		return nil, err
	}
	defer c.armInterrupt(ctx)()
	c.dirty = true
	if _, err := c.send(ctx, Request{Op: "search", Query: query, Limit: limit}); err != nil {
		return nil, ctxErr(ctx, err)
	}
	resp, _, err := c.readResponse(ctx)
	if err != nil {
		return nil, ctxErr(ctx, err)
	}
	c.dirty = false
	if !resp.OK {
		return nil, respRefusal(resp, "search")
	}
	hits := make([]HitInfo, len(resp.Hits))
	for i, h := range resp.Hits {
		hits[i] = HitInfo{Name: h.Name, Title: h.Title, Score: h.Score}
	}
	return hits, nil
}

// Progress reports one received frame to the rendering manager.
type Progress struct {
	// Seq is the frame's (claimed) sequence number.
	Seq int
	// Intact reports whether the frame passed its CRC.
	Intact bool
	// InfoContent is the accrued information content after this frame.
	InfoContent float64
	// NewUnits lists units that became fully available with this frame,
	// ready to render at their proper position. Their texts are views of
	// the receiver's body buffer that never change, so a renderer may keep
	// them, and read them on another goroutine, while the fetch goes on.
	NewUnits []core.RenderedUnit
	// Replica, Capability and Codec are the round's response header, as
	// FetchResult reports them at the end: who serves the stream, at what
	// tier, under which codec — known before the first frame, for a
	// renderer that must commit to them up front (HTTP response headers).
	Replica, Capability, Codec string
}

// FetchOptions parameterizes a document download.
type FetchOptions struct {
	// Doc names the document.
	Doc string
	// Query orders units by QIC when non-empty.
	Query string
	// LOD is the ranking level of detail; zero uses the server default.
	LOD document.LOD
	// Notion picks IC/QIC/MQIC; zero uses the server default.
	Notion content.Notion
	// Gamma overrides the redundancy ratio; zero uses the server
	// default.
	Gamma float64
	// StopAtIC terminates the download once accrued information content
	// reaches this threshold (the user judging relevance); zero means
	// download to completion.
	StopAtIC float64
	// Caching keeps intact packets across retransmission rounds — and
	// across reconnections; false reloads from scratch (stock HTTP
	// behaviour).
	Caching bool
	// MaxRounds caps transmission rounds, counting every request sent —
	// initial round, retransmissions, and resumes after a reconnect —
	// so a flapping link cannot loop forever. Zero means 10. Exhausting
	// the budget returns ErrRoundsExhausted with the partial result.
	MaxRounds int
	// AdaptGamma feeds each round's corrupted/received counts into the
	// client's EWMA α estimator and sizes every subsequent round's
	// Gamma from the estimate via the negative-binomial analysis of
	// §4.4, instead of reusing the fixed Gamma above. The estimate
	// trajectory is reported in FetchResult.AlphaEstimates.
	AdaptGamma bool
	// TargetSuccess is the per-round reconstruction probability adaptive
	// γ aims for; zero means 0.95.
	TargetSuccess float64
	// Codec selects the erasure codec. The zero value asks for the
	// server's default; name fountain explicitly (erasure.CodecFountain)
	// for a rateless fetch. The layout the server answers with names the
	// codec served, which FetchResult.Codec reports.
	Codec erasure.CodecID
	// RoundTimeout bounds one whole transmission round (Request,
	// response, packet stream). A round that overruns is aborted and
	// treated as a connection failure: the client reconnects and
	// resumes. Zero applies only the per-operation Timeout.
	RoundTimeout time.Duration
	// OnProgress, when set, is invoked for every received frame.
	OnProgress func(Progress)
	// Trace, when set, receives the fetch's event timeline: round
	// boundaries, per-frame packet/corrupt events, decodes, γ/α updates,
	// redials and rebases. The same trace reappears in FetchResult.Trace
	// and, when the client has a Metrics registry, in the fetch-log
	// record. Nil disables tracing at one branch per would-be event.
	Trace *obs.Trace
}

// fetchShape fingerprints the plan-affecting fetch options: the store's
// plan key, under which packets are only reusable by the same shape.
func fetchShape(opts FetchOptions) string {
	return fmt.Sprintf("%s|%s|%d|%d|%g|%d", opts.Doc, opts.Query, opts.LOD, opts.Notion, opts.Gamma, opts.Codec)
}

// FetchResult summarizes a download. On a terminal error (disconnect,
// rounds exhausted, cancellation) Fetch returns the partial result
// alongside the error: whatever units were rendered, the accrued
// information content, and the held-packet count all remain usable.
type FetchResult struct {
	// StoredPackets counts the packets the fetch held after seeding from
	// the client's store and before its first round — prefetched, kept by
	// an earlier fetch, or left by a previous process life. A decoded
	// generation counts as its M packets. Packets of another stream (the
	// document changed since they were stored) are dropped at the first
	// layout check and count nothing.
	StoredPackets int
	// RefetchedPackets counts intact frames that contributed nothing:
	// packets already held, or belonging to a generation that was
	// already reconstructible when the round started. A resumed fetch
	// whose Have/DoneGens feedback works keeps this at zero.
	RefetchedPackets int
	// Body is the reconstructed document body, nil when the fetch
	// stopped early at StopAtIC or ended on an error.
	Body []byte
	// InfoContent is the accrued information content at termination.
	InfoContent float64
	// Rendered lists every available unit in transmission order. Each
	// text is a view of the receiver's body buffer, which is never written
	// again where a text covers it: keeping one keeps that buffer alive.
	Rendered []core.RenderedUnit
	// Rounds is the number of transmission rounds used (every Request
	// sent, including resumes after a reconnect).
	Rounds int
	// Reconnects counts connection failures survived by redialing.
	Reconnects int
	// PacketsReceived and PacketsCorrupted count frames seen on the
	// wire.
	PacketsReceived, PacketsCorrupted int
	// BytesReceived sums the frame payload bytes seen on the wire
	// (corrupt frames included — the radio spent the air time either
	// way), so codecs with different framing compare on equal terms.
	BytesReceived int
	// HeaderBytes sums the control-record bytes received ahead of the
	// frames — the response header with its layout, or a refusal — over
	// every round and resume. It is counted beside BytesReceived, not in
	// it: folding the header into the wire-byte metrics is ROADMAP item 2,
	// a benchmark change of its own.
	HeaderBytes int
	// UplinkBytes sums the control-record bytes the client wrote: each
	// round's request and every stop, stopgen and more grant. The server
	// counts the same bytes as serve.uplink_bytes.
	UplinkBytes int
	// HeldPackets is the number of intact packets held at the end.
	HeldPackets int
	// Stalled reports whether any round ended without termination.
	Stalled bool
	// AlphaEstimates is the EWMA channel-corruption estimate after each
	// round, populated when AdaptGamma is set (§4.4).
	AlphaEstimates []float64
	// GammaRequests records the redundancy ratio requested each round
	// (0 means "server default"); under AdaptGamma later entries track
	// the estimated channel quality.
	GammaRequests []float64
	// Replica names the replica identified in the final round's
	// response header (sharded fleets); empty when the server did not
	// identify itself. When a front's replica dies mid-stream the client
	// resumes through the front, so this names the replica that served
	// the resume.
	Replica string
	// Capability is the serving tier's advertised capability mode;
	// empty means full capability.
	Capability string
	// Codec names the erasure codec of the final round's layout — what
	// the server served: the requested one, or its default when the
	// request named none. Empty until a layout was received.
	Codec string
	// Trace is the event timeline supplied in FetchOptions.Trace, echoed
	// back so callers hold result and timeline together; nil when the
	// fetch was untraced.
	Trace *obs.Trace
}

// Fetch downloads a document with fault-tolerant multi-resolution
// transmission, driving the retransmission loop of §4.2.
func (c *Client) Fetch(opts FetchOptions) (*FetchResult, error) {
	return c.FetchContext(context.Background(), opts)
}

// FetchContext is Fetch bounded by a context: cancellation interrupts
// in-flight network operations and stops the reconnect loop. Like Fetch,
// it returns the partial result alongside any terminal error.
func (c *Client) FetchContext(ctx context.Context, opts FetchOptions) (*FetchResult, error) {
	defer c.release()
	result, err := c.fetchContext(ctx, opts)
	cm := c.metrics()
	cm.fetches.Inc()
	if err != nil {
		cm.fetchErrors.Inc()
	}
	if result != nil {
		result.Trace = opts.Trace
		cm.roundsHist.Observe(float64(result.Rounds))
	}
	if err == nil {
		opts.Trace.Record(obs.Event{Type: obs.EventDone})
	} else {
		opts.Trace.Record(obs.Event{Type: obs.EventError, Note: errClass(err)})
	}
	c.logFetch(opts, result, err)
	return result, err
}

// logFetch appends the finished fetch to the registry's fetch log (the
// /debug/fetches time-series); no-op without a Metrics registry.
func (c *Client) logFetch(opts FetchOptions, result *FetchResult, err error) {
	log := c.Metrics.FetchLog()
	if log == nil {
		return
	}
	rec := obs.FetchRecord{Doc: opts.Doc, Origin: "client", Err: errClass(err)}
	if result != nil {
		rec.Rounds = result.Rounds
		rec.Reconnects = result.Reconnects
		rec.Received = result.PacketsReceived
		rec.Corrupted = result.PacketsCorrupted
		rec.Held = result.HeldPackets
		if n := len(result.AlphaEstimates); n > 0 {
			rec.Alpha = result.AlphaEstimates[n-1]
		}
		if n := len(result.GammaRequests); n > 0 {
			rec.Gamma = result.GammaRequests[n-1]
		}
	}
	rec.Events = opts.Trace.Events()
	log.Record(rec)
}

// fetchContext runs the fetch machine over the connection;
// FetchContext wraps it with the terminal observability (metrics, trace
// close-out, fetch log). Round 1 starts from whatever the store holds for
// this shape — a prefetch window, an earlier skim, a previous process
// life; possibly the whole document, which then needs no network at all.
func (c *Client) fetchContext(ctx context.Context, opts FetchOptions) (*FetchResult, error) {
	if opts.Doc == "" {
		return nil, fmt.Errorf("transport: fetch needs a document name")
	}
	var plan string
	var rcv *core.Receiver
	if c.Store != nil {
		plan = fetchShape(opts)
		rcv, _ = c.storeSeed(plan)
	}
	cm := c.metrics()
	m := newMachine(opts, rcv, 0)
	m.rounds, m.reconnects, m.frames, m.corrupted = cm.rounds, cm.reconnects, cm.packetsIn, cm.packetsCorrupt
	m.alphaGauge, m.gammaGauge = cm.alpha, cm.gamma
	if opts.AdaptGamma {
		m.alpha = c.alphaEstimator()
	}
	return m.result(c.drive(ctx, &m, plan))
}

// request is the fetch request opts put on the wire, before a round adds
// its γ and what the receiver already holds.
func (opts FetchOptions) request() Request {
	req := Request{Op: "fetch", Doc: opts.Doc, Query: opts.Query, Gamma: opts.Gamma}
	if opts.LOD != 0 {
		req.LOD = opts.LOD.String()
	}
	if opts.Notion != 0 {
		req.Notion = opts.Notion.String()
	}
	if opts.Codec != 0 {
		req.Codec = opts.Codec.String()
	}
	return req
}

// alphaEstimator lazily creates the client's channel-quality estimator.
func (c *Client) alphaEstimator() *ewma.Estimator {
	if c.Alpha == nil {
		c.Alpha, _ = ewma.New(defaultAlphaWeight) // constant weight is valid
	}
	return c.Alpha
}

// adaptiveGamma sizes the next round's redundancy ratio from the
// estimated corruption probability (§4.4): the smallest γ whose
// negative-binomial per-round reconstruction probability reaches the
// target for the layout's largest generation, rounded up to coarse
// steps so the server's plan cache is not churned by tiny γ changes.
// ok=false keeps the previous γ (degenerate layout, or α so high no
// feasible redundancy reaches the target).
func adaptiveGamma(layout core.Layout, alphaEst, target float64) (gamma float64, ok bool) {
	m := 0
	for _, s := range layout.Shapes {
		if s.M > m {
			m = s.M
		}
	}
	if m == 0 {
		return 0, false
	}
	if target <= 0 || target >= 1 {
		target = defaultTargetSuccess
	}
	if alphaEst < 0 {
		alphaEst = 0
	}
	if alphaEst > maxAdaptiveAlpha {
		alphaEst = maxAdaptiveAlpha
	}
	g, err := core.GammaFor(m, alphaEst, target)
	if err != nil {
		return 0, false
	}
	g = math.Ceil(g*gammaSteps) / gammaSteps
	if g < 1 {
		g = 1
	}
	return g, true
}

// PrefetchResult reports a prefetch window's accounting.
type PrefetchResult struct {
	// Received counts frames that crossed the wire during this call —
	// the unit the budget is charged in, since transmissions are what
	// the idle window's bandwidth affords: a corrupted frame costs air
	// time whether or not it contributes an intact packet.
	Received int
	// Intact is Held after the call: the packets the client's store holds
	// toward the document, including those of earlier windows.
	Intact int
}

// Prefetch pulls up to budgetPackets frames of a document into the
// client's store during idle time (§6's intelligent prefetching on the
// live transport) and stops the stream. A client without a store gets a
// memory-only one with the default budget. The budget is counted in
// transmissions, not intact packets — corrupted frames burn budget
// because they burn the idle window's air time — and the result reports
// both counts. Any later Fetch with the same plan-affecting options (Doc,
// Query, LOD, Notion, Gamma, Codec) starts from the prefetched packets
// and reports them in StoredPackets; so does a second client sharing the
// store. Prefetching the same document again tops it up. On error, frames
// received before the failure are still stored.
func (c *Client) Prefetch(opts FetchOptions, budgetPackets int) (PrefetchResult, error) {
	return c.PrefetchContext(context.Background(), opts, budgetPackets)
}

// PrefetchContext is Prefetch bounded by a context; like Fetch it
// reconnects and resumes on mid-stream connection failures.
func (c *Client) PrefetchContext(ctx context.Context, opts FetchOptions, budgetPackets int) (res PrefetchResult, err error) {
	if opts.Doc == "" {
		return res, fmt.Errorf("transport: prefetch needs a document name")
	}
	if budgetPackets < 1 {
		return res, fmt.Errorf("transport: prefetch budget %d, want >= 1", budgetPackets)
	}
	defer c.release()
	if c.Store == nil {
		if c.Store, err = store.Open("", store.Options{}); err != nil {
			return res, err
		}
	}
	// An idle window must not spend air time on rows the store already
	// holds, whoever banked them.
	plan := fetchShape(opts)
	rcv, _ := c.storeSeed(plan)
	// A prefetch window is a caching fetch with a frame budget in place of
	// the user's stop conditions: no rendering, no trace, no γ adaptation,
	// and one stream, resumed at most once per redial the retry policy
	// allows — a prefetch is best-effort work.
	opts.Caching = true
	opts.StopAtIC = 0
	opts.OnProgress = nil
	opts.Trace = nil
	opts.AdaptGamma = false
	opts.MaxRounds = 1 + max(c.Retry.withDefaults().MaxAttempts, 0)
	m := newMachine(opts, rcv, budgetPackets)
	// Idle-window traffic is counted apart from foreground fetches.
	m.frames = c.metrics().prefetchFrames
	err = c.drive(ctx, &m, plan)
	return PrefetchResult{Received: m.res.PacketsReceived, Intact: c.Held(opts)}, err
}

// Held reports the packets the client's store holds toward the fetch
// opts describes, a decoded generation counting as its M packets: what a
// Fetch of that shape would start from (FetchResult.StoredPackets), and
// what a prefetch planner should net out (prefetch.Candidate.HavePackets).
// Zero without a store.
func (c *Client) Held(opts FetchOptions) int {
	_, n := c.storeSeed(fetchShape(opts))
	return n
}

// drive runs a fetch machine over the client's connection until it
// finishes, and returns the error it finished with: it performs each
// action — writes, the store drain, redials, progress — and turns what the
// socket yields next into the machine's next event. Each round runs under
// rctx: the fetch's context, or one bounded by FetchOptions.RoundTimeout,
// armed so a cancellation interrupts the round's reads and writes. The
// connection is dirty from a request until its end marker or refusal.
func (c *Client) drive(ctx context.Context, m *machine, plan string) error {
	m.canRedial = c.redial != nil && c.Retry.enabled()
	rctx, cancel, release := ctx, context.CancelFunc(func() {}), func() {}
	var frameBuf []byte // reused across frames; the receiver copies what it keeps
	acts := m.Start(ctx.Err())
	for {
		var ev event
		next := false // whether an action produced the next event
		for i := range acts {
			switch a := &acts[i]; a.kind {
			case actFinish:
				release()
				cancel()
				return a.err
			case actRequest:
				release()
				cancel()
				rctx, cancel = ctx, func() {}
				if m.opts.RoundTimeout > 0 {
					rctx, cancel = context.WithTimeout(ctx, m.opts.RoundTimeout)
				}
				if err := c.resync(); err != nil {
					release, ev, next = func() {}, failure(ctx, rctx, err), true
					break
				}
				release = c.armInterrupt(rctx)
				ev, next = c.roundTrip(ctx, rctx, &m.res, a.req, &m.resp), true
				c.dirty = ev.kind != evHeader || m.resp.OK
			case actControl:
				n, err := c.send(rctx, a.req)
				m.res.UplinkBytes += n
				if err != nil {
					ev, next = failure(ctx, rctx, err), true
				}
			case actDrain:
				c.persistReceiver(plan, m.rcv)
			case actRedial:
				release()
				release = func() {}
				ev, next = event{kind: evRedialed}, true
				if err := c.reconnect(ctx); err != nil {
					ev = failure(ctx, ctx, err)
				}
			case actProgress:
				m.opts.OnProgress(a.prog)
			}
			if next {
				break
			}
		}
		if !next {
			ev = c.readFrame(ctx, rctx, &frameBuf)
			c.dirty = ev.kind != evEnd
		}
		if ev.kind == evEnd || ev.kind == evRedialed {
			if err := ctx.Err(); err != nil {
				ev = event{kind: evCtxDone, err: err}
			}
		}
		acts = m.Step(ev)
	}
}

// roundTrip sends a round's request and reads its response record into
// resp, and returns the header event, or the failure.
func (c *Client) roundTrip(ctx, rctx context.Context, res *FetchResult, req Request, resp *Response) event {
	n, err := c.send(rctx, req)
	res.UplinkBytes += n
	if err != nil {
		return failure(ctx, rctx, err)
	}
	*resp, n, err = c.readResponse(rctx)
	res.HeaderBytes += n
	if err != nil {
		return failure(ctx, rctx, err)
	}
	return event{kind: evHeader}
}

// readFrame reads the stream's next frame into buf. A read that needs the
// socket runs under a fresh deadline; a frame already whole in c.r's
// buffer needs none, but a cancellation is still seen before it.
func (c *Client) readFrame(ctx, rctx context.Context, buf *[]byte) event {
	if frameBuffered(c.r) {
		if err := rctx.Err(); err != nil {
			return failure(ctx, rctx, err)
		}
	} else if err := c.armRead(rctx); err != nil {
		return failure(ctx, rctx, err)
	}
	frame, err := ReadFrameInto(c.r, *buf)
	if err != nil {
		return failure(ctx, rctx, err)
	}
	if frame == nil {
		return event{kind: evEnd}
	}
	*buf = frame
	return event{kind: evFrame, data: frame}
}

// failure classifies an I/O error for the machine by its cause: the
// fetch's context, the round's deadline, or the link. A read deadline is
// capped at the context's, so the I/O can time out a moment before the
// context's own timer marks it done: past its deadline, the context is
// waited for.
func failure(ctx, rctx context.Context, err error) event {
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		<-ctx.Done()
	}
	if cerr := ctx.Err(); cerr != nil {
		return event{kind: evCtxDone, err: cerr}
	}
	if d, ok := rctx.Deadline(); ok && !time.Now().Before(d) {
		return event{kind: evRoundDeadline, err: err}
	}
	return event{kind: evConnError, err: err}
}

var _ io.Closer = (*Client)(nil)
