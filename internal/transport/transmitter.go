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
	bcast   broadcastHub
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
func (t *transmitter) degraded(mode Capability, what string) (Response, FrameSource, func(int, error)) {
	t.tm.degraded.Inc()
	return t.refuse(Response{
		Error:      fmt.Sprintf("capability %s: %s refused", mode, what),
		Degraded:   true,
		Capability: mode.String(),
	})
}

// Fetch implements Backend: capability tier, codec, plan, then the frame
// source that is everything codec- and mode-specific about the stream.
func (t *transmitter) Fetch(req Request) (Response, FrameSource, func(int, error)) {
	// Capability tiers degrade the fetch path along the fallback tree
	// instead of failing it outright: search-only refuses streams,
	// degraded tiers clamp γ and refuse prefetch, clear-prefix-only
	// additionally skips parity rows below.
	mode := t.opts.Capability.Mode()
	if !mode.AllowsFetch() {
		return t.degraded(mode, "fetch")
	}
	if req.Prefetch && !mode.AllowsPrefetch() {
		return t.degraded(mode, "prefetch")
	}
	if mode.ClampsGamma() {
		max := t.opts.DegradedGammaMax
		if req.Gamma == 0 || req.Gamma > max {
			// The unset default could exceed the clamp too, so pin the
			// effective γ explicitly rather than trusting the default.
			req.Gamma = max
		}
	}

	codec := t.opts.DefaultCodec
	if req.Codec != "" {
		parsed, perr := erasure.ParseCodec(req.Codec)
		if perr != nil {
			t.tm.fetchErrors.Inc()
			return t.refuse(Response{Error: perr.Error()})
		}
		codec = parsed
	}
	// Clear-prefix-only tiers have no rateless mode: every fountain
	// packet is coded, so the tier serves the fixed-rate codec whose
	// systematic prefix streams without any parity encoding. The layout
	// in the response tells the client which codec it actually got.
	if mode.ClearPrefixOnly() {
		codec = erasure.CodecVandermonde
	}

	resolved, errMsg := t.buildPlan(req)
	if errMsg != "" {
		t.tm.fetchErrors.Inc()
		return t.refuse(Response{Error: errMsg})
	}

	var src FrameSource
	var leave func() // releases a broadcast subscription
	layout := resolved.Plan.Layout()
	sending := 0 // an open-loop stream has no predetermined frame count
	if codec == erasure.CodecFountain {
		t.tm.fountainFetches.Inc()
		seed := req.Seed
		if seed == 0 {
			seed = resolved.FountainSeed(t.opts.FountainSalt)
		}
		layout = resolved.Plan.FountainLayout(seed)
		if req.Broadcast {
			sub := t.subscribeBroadcast(resolved, seed, len(layout.Shapes))
			leave = func() { t.unsubscribeBroadcast(broadcastKey{plan: resolved.Key, seed: seed}, sub) }
			src = &broadcastSource{genStops: newGenStops(req, layout), sub: sub}
		} else {
			src = newFountainSource(resolved, seed, req, layout)
		}
	} else {
		// Clear-prefix-only tiers stream just the systematic rows: every
		// parity row is skipped, so no parity is ever encoded. A clean
		// channel still reconstructs (M intact rows per generation); a
		// lossy one pays extra retransmission rounds instead of failing.
		rows := newRowSource(resolved, layout, req, mode.ClearPrefixOnly())
		src, sending = rows, rows.sending
	}
	hdr := Response{OK: true, Layout: &layout, Sending: sending, Replica: t.opts.Name}
	if mode != CapFull {
		hdr.Capability = mode.String()
	}
	// The hook keeps what the fetch-log record needs, not the request.
	rec := obs.FetchRecord{Doc: req.Doc, Origin: "server", Replica: t.opts.Name, Have: len(req.Have), Gamma: req.Gamma}
	return hdr, src, func(sent int, err error) {
		if leave != nil {
			leave()
		}
		if err != nil {
			return
		}
		if codec == erasure.CodecFountain {
			t.tm.fountainFrames.Add(int64(sent))
		}
		rec.Sent = sent
		t.tm.fetchLog.Record(rec)
	}
}

// buildPlan resolves a fetch request through the shared planner into a
// frame-serving handle; it returns a client-facing error message rather
// than an error for request-level problems. Planner errors are safe to
// forward: request problems carry curated messages and build failures
// match what this layer historically surfaced.
func (t *transmitter) buildPlan(req Request) (*planner.Resolved, string) {
	resolved, err := t.planner.ResolveFrames(planner.Request{
		Doc:    req.Doc,
		Query:  req.Query,
		LOD:    req.LOD,
		Notion: req.Notion,
		Gamma:  req.Gamma,
	})
	if err != nil {
		return nil, err.Error()
	}
	return resolved, ""
}
