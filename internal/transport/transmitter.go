package transport

import (
	"fmt"
	"time"

	"mobweb/internal/erasure"
	"mobweb/internal/obs"
	"mobweb/internal/planner"
	"mobweb/internal/search"
)

// transmitter is the planner-backed Backend: the database gateway plus
// document transmitter of Figure 1. Plan resolution goes through the
// shared planner, so retransmission rounds of one (doc, query, LOD,
// notion, γ) tuple reuse a cached plan instead of re-ranking and
// re-encoding.
type transmitter struct {
	engine  *search.Engine
	planner *planner.Planner
	opts    ServerOptions
	tm      transmitterMetrics
}

// Search implements Backend.
func (t *transmitter) Search(req Request) Response {
	limit := req.Limit
	if limit <= 0 {
		limit = 10
	}
	hits := t.engine.Search(req.Query, limit)
	summaries := make([]HitSummary, len(hits))
	for i, h := range hits {
		summaries[i] = HitSummary{Name: h.Name, Title: h.Title, Score: h.Score}
	}
	return Response{OK: true, Hits: summaries}
}

// Shed implements Backend.
func (t *transmitter) Shed(_ Request, retryAfter time.Duration) Response {
	t.tm.sheds.Inc()
	return Response{
		Error:        "load shed: fetch budget exhausted",
		Shed:         true,
		RetryAfterMS: int(retryAfter / time.Millisecond),
		Replica:      t.opts.Name,
	}
}

// refuse is a terminal non-OK fetch header.
func (t *transmitter) refuse(resp Response) (Response, FrameSource, func(int, error)) {
	resp.Replica = t.opts.Name
	return resp, nil, nil
}

// degraded is the refusal of a request the capability tier does not serve.
func degraded(mode Capability, what string) Response {
	return Response{Error: fmt.Sprintf("capability %s: %s refused", mode, what), Degraded: true, Capability: mode.String()}
}

// degradedGammaMax is the redundancy ratio a fetch-degraded or
// clear-prefix-only tier clamps every fetch to.
const degradedGammaMax = 1.25

// resolution is a fetch request decided: what its response header
// carries and its stream follows. The layout and its encoding are the
// resolved plan's own (resolved.Layout, resolved.LayoutBinary), built
// once per plan and codec; its seed is the plan's digest.
type resolution struct {
	req      Request // γ as the tier clamped it
	mode     Capability
	codec    erasure.CodecID
	resolved *planner.Resolved
}

// resolve decides a fetch request without sending anything: capability
// tier, codec, then the plan, whose digest is the layout's seed. Fetch
// streams what it decides and Server.Layout reports it, so the two cannot
// disagree. A request it turns down comes back as the refusal header
// (Error set).
func (t *transmitter) resolve(req Request) (resolution, Response) {
	// Capability tiers degrade the fetch path along the fallback tree
	// instead of failing it outright: search-only refuses streams,
	// degraded tiers clamp γ and refuse prefetch, clear-prefix-only
	// additionally sends only each generation's source packets.
	r := resolution{req: req, mode: t.opts.Capability.Mode(), codec: t.opts.DefaultCodec}
	if !r.mode.AllowsFetch() {
		return r, degraded(r.mode, "fetch")
	}
	if req.Prefetch && !r.mode.AllowsPrefetch() {
		return r, degraded(r.mode, "prefetch")
	}
	if r.mode.ClampsGamma() && (req.Gamma == 0 || req.Gamma > degradedGammaMax) {
		// The unset default could exceed the clamp too, so pin the
		// effective γ explicitly rather than trusting the default.
		r.req.Gamma = degradedGammaMax
	}
	if req.Codec != "" {
		parsed, err := erasure.ParseCodec(req.Codec)
		if err != nil {
			return r, Response{Error: err.Error()}
		}
		r.codec = parsed
	}
	// Planner errors are safe to forward: request problems carry curated
	// messages, and a build failure is the server's to report.
	var err error
	r.resolved, err = t.planner.ResolveFrames(planner.Request{Doc: req.Doc, Query: req.Query, LOD: req.LOD, Notion: req.Notion, Gamma: r.req.Gamma, Codec: r.codec})
	if err != nil {
		return r, Response{Error: err.Error()}
	}
	return r, Response{}
}

// Fetch implements Backend: the resolution, then the frame source that
// is everything codec- and mode-specific about the stream.
func (t *transmitter) Fetch(req Request) (Response, FrameSource, func(int, error)) {
	r, refusal := t.resolve(req)
	switch {
	case refusal.Degraded:
		t.tm.degraded.Inc()
		return t.refuse(refusal)
	case refusal.Error != "":
		t.tm.fetchErrors.Inc()
		return t.refuse(refusal)
	}
	req, codec, resolved := r.req, r.codec, r.resolved
	layout := &resolved.Layout
	if req.Seed != layout.Seed {
		// Have and DoneGens name packets of another stream (or of none):
		// the document changed since the client stored them, so it is
		// owed every packet of this one.
		req.Have, req.DoneGens = nil, nil
	}

	// Clear-prefix-only tiers stream just each generation's first M
	// packets, which under both codecs are its raw packets, so no parity
	// or repair is ever encoded. A clean channel still reconstructs; a
	// lossy one pays extra retransmission rounds instead of failing.
	clearOnly := r.mode.ClearPrefixOnly()
	var src FrameSource
	var sending int
	if codec == erasure.CodecFountain {
		t.tm.fountainFetches.Inc()
		fs := newFountainSource(resolved, layout.Seed, req, *layout, clearOnly)
		src, sending = fs, fs.window
	} else {
		src, sending = newRowSource(resolved, *layout, req, clearOnly)
	}
	hdr := Response{OK: true, Layout: layout, layoutBin: resolved.LayoutBinary, Sending: sending, Replica: t.opts.Name}
	if r.mode != CapFull {
		hdr.Capability = r.mode.String()
	}
	// The hook keeps what the fetch-log record needs, not the request. A
	// stream that ended in error is recorded too, with the frames that
	// went out before it.
	rec := obs.FetchRecord{Doc: req.Doc, Origin: "server", Replica: t.opts.Name, Have: len(req.Have), Gamma: req.Gamma}
	return hdr, src, func(sent int, err error) {
		if codec == erasure.CodecFountain {
			t.tm.fountainFrames.Add(int64(sent))
		}
		rec.Sent, rec.Err = sent, errClass(err)
		t.tm.fetchLog.Record(rec)
	}
}
