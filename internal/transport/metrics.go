package transport

import (
	"context"
	"errors"

	"mobweb/internal/obs"
)

// clientMetrics holds the client-side metric pointers, resolved once per
// registry and cached on the Client. The zero value (all nil) is what a
// metrics-free client carries: every call site then costs one nil check.
type clientMetrics struct {
	fetches, fetchErrors      *obs.Counter
	rounds, reconnects        *obs.Counter
	packetsIn, packetsCorrupt *obs.Counter
	prefetchFrames            *obs.Counter
	alpha, gamma              *obs.FloatGauge
	roundsHist                *obs.Histogram
}

func newClientMetrics(r *obs.Registry) clientMetrics {
	if r == nil {
		return clientMetrics{}
	}
	return clientMetrics{
		fetches:        r.Counter("fetch.count"),
		fetchErrors:    r.Counter("fetch.errors"),
		rounds:         r.Counter("fetch.rounds"),
		reconnects:     r.Counter("fetch.reconnects"),
		packetsIn:      r.Counter("fetch.packets_received"),
		packetsCorrupt: r.Counter("fetch.packets_corrupted"),
		prefetchFrames: r.Counter("prefetch.frames"),
		alpha:          r.FloatGauge("fetch.alpha"),
		gamma:          r.FloatGauge("fetch.gamma"),
		roundsHist:     r.Histogram("fetch.rounds_per_fetch", []float64{1, 2, 3, 5, 8, 13}),
	}
}

// metrics returns the client's resolved metric set, re-resolving when the
// caller swapped the Metrics registry between fetches. The Client is
// single-goroutine by contract, so the cache needs no locking.
func (c *Client) metrics() *clientMetrics {
	if c.cmFrom != c.Metrics {
		c.cm = newClientMetrics(c.Metrics)
		c.cmFrom = c.Metrics
	}
	return &c.cm
}

// serverMetrics holds the wire loop's metric pointers — connections,
// requests and frames, whatever the backend; the zero value disables
// everything.
type serverMetrics struct {
	connsAccepted *obs.Counter
	connsActive   *obs.Gauge
	reqSearch     *obs.Counter
	reqFetch      *obs.Counter
	reqMore       *obs.Counter // grants, mid-stream or stale
	reqBad        *obs.Counter
	headerBytes   *obs.Counter // control-line bytes written: fetch headers, search replies, refusals
	framesOut     *obs.Counter
	framesDropped *obs.Counter
}

func newServerMetrics(r *obs.Registry) serverMetrics {
	if r == nil {
		return serverMetrics{}
	}
	return serverMetrics{
		connsAccepted: r.Counter("serve.conns_accepted"),
		connsActive:   r.Gauge("serve.conns_active"),
		reqSearch:     r.Counter("serve.requests_search"),
		reqFetch:      r.Counter("serve.requests_fetch"),
		reqMore:       r.Counter("serve.requests_more"),
		reqBad:        r.Counter("serve.requests_bad"),
		headerBytes:   r.Counter("serve.header_bytes"),
		framesOut:     r.Counter("serve.frames_out"),
		framesDropped: r.Counter("serve.frames_dropped"),
	}
}

// transmitterMetrics holds the planner-backed backend's metric pointers
// plus the shared fetch log; the zero value disables everything.
type transmitterMetrics struct {
	fetchErrors *obs.Counter
	sheds       *obs.Counter
	degraded    *obs.Counter
	fetchLog    *obs.FetchLog

	// Rateless-mode counters: fountain fetches served and fountain frames
	// written (added when a stream ends).
	fountainFetches *obs.Counter
	fountainFrames  *obs.Counter
}

func newTransmitterMetrics(r *obs.Registry) transmitterMetrics {
	if r == nil {
		return transmitterMetrics{}
	}
	return transmitterMetrics{
		fetchErrors: r.Counter("serve.fetch_errors"),
		sheds:       r.Counter("serve.sheds"),
		degraded:    r.Counter("serve.degraded_refusals"),
		fetchLog:    r.FetchLog(),

		fountainFetches: r.Counter("serve.fountain_fetches"),
		fountainFrames:  r.Counter("serve.fountain_frames_out"),
	}
}

// errClass maps a terminal fetch error to a short stable class for traces
// and fetch-log records; full error strings carry addresses and ports that
// would make timelines nondeterministic.
func errClass(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, context.Canceled):
		return "canceled"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, ErrRoundsExhausted):
		return "rounds-exhausted"
	case errors.Is(err, ErrDisconnected):
		return "disconnected"
	case errors.Is(err, ErrBadResponse):
		return "bad-response"
	case errors.Is(err, ErrShed):
		return "shed"
	case errors.Is(err, ErrDegraded):
		return "degraded"
	case errors.Is(err, ErrReroute):
		return "rerouted"
	case errors.As(err, new(refusal)):
		return "refused"
	default:
		return "error"
	}
}

// ErrorClass maps a terminal fetch error to its short stable class ("shed",
// "degraded", "refused", "rerouted", "disconnected", ...) for fetch-log
// records and traces outside this package (gateway, shard front tier).
func ErrorClass(err error) string { return errClass(err) }
