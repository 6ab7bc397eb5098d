// Package gateway is the WWW-server half of Figure 1: an HTTP front end
// over the document collection that lets a conventional browser consume
// multi-resolution content. Three endpoints:
//
//	GET /search?q=...&limit=N      → JSON list of hits
//	GET /sc/{name}?q=...           → JSON structural characteristic
//	                                 (per-unit IC/QIC/MQIC)
//	GET /doc/{name}?q=...&lod=...&notion=...&ic=0.4
//	                               → the document's units as text/plain,
//	                                 highest content first, streamed
//	                                 progressively (chunked) and cut off
//	                                 at the requested information content
//
// The gateway runs server-side on the wired segment; the FT-MRT packet
// transport covers the wireless hop. Exposing the ranked unit stream over
// plain HTTP makes the multi-resolution behaviour observable with stock
// tools (curl shows the most relevant paragraphs arriving first).
package gateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"mobweb/internal/content"
	"mobweb/internal/core"
	"mobweb/internal/document"
	"mobweb/internal/erasure"
	"mobweb/internal/obs"
	"mobweb/internal/planner"
	"mobweb/internal/search"
	"mobweb/internal/textproc"
	"mobweb/internal/transport"
)

// Fetcher downloads a document over the FT-MRT packet transport.
// *transport.Client satisfies it, whether dialled straight at one
// replica or at a shard front.
type Fetcher interface {
	Fetch(opts transport.FetchOptions) (*transport.FetchResult, error)
}

// Handler serves the gateway endpoints. Construct with New or
// NewWithPlanner.
type Handler struct {
	engine  *search.Engine
	planner *planner.Planner
	mux     *http.ServeMux
	// fetcher, when set, backs GET /doc with the packet-transport tier
	// instead of the local engine; see SetFetcher.
	fetcher Fetcher
	// requests counts gateway requests when a metrics registry is
	// attached via SetMetrics; nil (no-op) otherwise.
	requests *obs.Counter
	// unavailable counts /doc requests refused with 503 because the
	// fetch tier shed them or was degraded below fetching.
	unavailable *obs.Counter
	// fetchLog receives one record per transport-backed /doc request
	// when a registry is attached.
	fetchLog *obs.FetchLog
}

var _ http.Handler = (*Handler)(nil)

// New wraps a search engine as an HTTP gateway with its own
// default-configured planning service.
func New(engine *search.Engine) (*Handler, error) {
	if engine == nil {
		return nil, fmt.Errorf("gateway: nil engine")
	}
	pl, err := planner.New(engine, planner.Options{
		Defaults: core.Config{LOD: document.LODParagraph, Notion: content.NotionQIC},
	})
	if err != nil {
		return nil, err
	}
	return NewWithPlanner(engine, pl)
}

// NewWithPlanner wraps a search engine as an HTTP gateway sharing a
// planning service (and hence its plan cache) with other front ends.
func NewWithPlanner(engine *search.Engine, pl *planner.Planner) (*Handler, error) {
	if engine == nil {
		return nil, fmt.Errorf("gateway: nil engine")
	}
	if pl == nil {
		return nil, fmt.Errorf("gateway: nil planner")
	}
	h := &Handler{engine: engine, planner: pl, mux: http.NewServeMux()}
	h.mux.HandleFunc("GET /search", h.handleSearch)
	h.mux.HandleFunc("GET /sc/{name}", h.handleSC)
	h.mux.HandleFunc("GET /doc/{name}", h.handleDoc)
	h.mux.HandleFunc("GET /layout/{name}", h.handleLayout)
	return h, nil
}

// SetMetrics attaches a metrics registry to the gateway: every request is
// counted, the shared planner's cache counters are exposed as a
// scrape-time probe, and two debug endpoints are mounted on the gateway
// mux:
//
//	GET /debug/metrics      → point-in-time registry snapshot (counters,
//	                          gauges, histograms, probe output) as JSON
//	GET /debug/fetches?n=K  → recent fetch records, newest first
//
// Call it once, before serving; a nil registry is a no-op. The registry is
// typically the same one wired into the transmission server and clients,
// so one scrape shows both HTTP and packet-transport activity.
func (h *Handler) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	h.requests = reg.Counter("gateway.requests")
	h.unavailable = reg.Counter("gateway.unavailable")
	h.fetchLog = reg.FetchLog()
	reg.RegisterProbe("planner", func() any { return h.planner.Stats() })
	reg.RegisterProbe("framecache", func() any { return h.planner.FrameStats() })
	h.mux.Handle("GET /debug/metrics", obs.MetricsHandler(reg))
	h.mux.Handle("GET /debug/fetches", obs.FetchesHandler(reg))
}

// SetFetcher routes GET /doc through the FT-MRT packet transport — a
// client dialled at a replica or shard front — instead of the local
// engine. Call it once, before serving; a nil fetcher is a no-op.
//
// In this mode the gateway translates the fetch tier's robustness
// signals into stock HTTP: a shed fetch (admission control) or a fleet
// degraded below fetching becomes 503 Service Unavailable with a
// Retry-After header, so conventional browsers and proxies back off
// without understanding the packet protocol. Successful responses name
// the serving tier in X-Mobweb-Replica and X-Mobweb-Capability headers.
func (h *Handler) SetFetcher(f Fetcher) {
	if f == nil {
		return
	}
	h.fetcher = f
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.requests.Inc()
	h.mux.ServeHTTP(w, r)
}

// searchHit is the JSON shape of one search result.
type searchHit struct {
	Name  string  `json:"name"`
	Title string  `json:"title"`
	Score float64 `json:"score"`
}

func (h *Handler) handleSearch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	if q == "" {
		http.Error(w, "missing q parameter", http.StatusBadRequest)
		return
	}
	limit := 10
	if s := r.URL.Query().Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			http.Error(w, "bad limit", http.StatusBadRequest)
			return
		}
		limit = n
	}
	hits := h.engine.Search(q, limit)
	out := make([]searchHit, len(hits))
	for i, hit := range hits {
		out[i] = searchHit{Name: hit.Name, Title: hit.Title, Score: hit.Score}
	}
	writeJSON(w, out)
}

// unitScore is the JSON shape of one unit's structural characteristic.
type unitScore struct {
	Label string  `json:"label"`
	Level string  `json:"level"`
	Title string  `json:"title,omitempty"`
	IC    float64 `json:"ic"`
	QIC   float64 `json:"qic"`
	MQIC  float64 `json:"mqic"`
}

func (h *Handler) handleSC(w http.ResponseWriter, r *http.Request) {
	sc, ok := h.engine.SC(r.PathValue("name"))
	if !ok {
		http.Error(w, "unknown document", http.StatusNotFound)
		return
	}
	qv := textproc.QueryVector(r.URL.Query().Get("q"))
	scores := sc.Evaluate(qv)
	var out []unitScore
	sc.Doc().Root.Walk(func(u *document.Unit) bool {
		out = append(out, unitScore{
			Label: u.Label,
			Level: u.Level.String(),
			Title: u.Title,
			IC:    scores.IC[u.ID],
			QIC:   scores.QIC[u.ID],
			MQIC:  scores.MQIC[u.ID],
		})
		return true
	})
	writeJSON(w, out)
}

// handleLayout returns the FT-MRT transmission geometry for a document,
// letting an HTTP-bootstrapped client build a core.Receiver and then
// consume the packet transport for the wireless hop. The body is what the
// packet transport's response line carries in its layout member: one JSON
// string, the base64 of core.Layout's binary encoding (DESIGN.md §19), so
// json.Unmarshal into a core.Layout — or base64 -d and UnmarshalBinary —
// reads it, and Validate judges it. Query parameters
// mirror /doc: q, lod, notion, plus gamma. Resolution goes through the
// shared planner, so repeated layout requests (each retransmission
// bootstrap) hit the plan cache.
func (h *Handler) handleLayout(w http.ResponseWriter, r *http.Request) {
	query := r.URL.Query()
	req := planner.Request{
		Doc:    r.PathValue("name"),
		Query:  query.Get("q"),
		LOD:    query.Get("lod"),
		Notion: query.Get("notion"),
	}
	if s := query.Get("gamma"); s != "" {
		g, err := strconv.ParseFloat(s, 64)
		if err != nil || g == 0 {
			// An explicit gamma=0 is a bad request here, not "use the
			// default" as the zero value means inside the planner.
			http.Error(w, "gamma must be a finite number >= 1", http.StatusBadRequest)
			return
		}
		req.Gamma = g
	}
	codec := erasure.CodecVandermonde
	if s := query.Get("codec"); s != "" {
		c, err := erasure.ParseCodec(s)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		codec = c
	}
	if codec == erasure.CodecFountain {
		// The fountain layout carries the stream seed: explicit via
		// ?seed=, otherwise derived from the canonical plan key so every
		// gateway replica hands out the same geometry.
		resolved, err := h.planner.ResolveFrames(req)
		if err != nil {
			writePlanError(w, err)
			return
		}
		seed := resolved.FountainSeed(0)
		if s := query.Get("seed"); s != "" {
			v, perr := strconv.ParseUint(s, 10, 64)
			if perr != nil || v == 0 {
				http.Error(w, "seed must be a positive integer", http.StatusBadRequest)
				return
			}
			seed = v
		}
		writeJSON(w, resolved.Plan.FountainLayout(seed))
		return
	}
	plan, err := h.planner.Resolve(req)
	if err != nil {
		writePlanError(w, err)
		return
	}
	writeJSON(w, plan.Layout())
}

// writePlanError maps planner errors onto HTTP statuses: unknown document
// → 404, bad parameter → 400, build failure → 500.
func writePlanError(w http.ResponseWriter, err error) {
	var reqErr *planner.RequestError
	if errors.As(err, &reqErr) {
		status := http.StatusBadRequest
		if reqErr.NotFound {
			status = http.StatusNotFound
		}
		http.Error(w, reqErr.Msg, status)
		return
	}
	http.Error(w, err.Error(), http.StatusInternalServerError)
}

func (h *Handler) handleDoc(w http.ResponseWriter, r *http.Request) {
	if h.fetcher != nil {
		h.handleDocRemote(w, r)
		return
	}
	sc, ok := h.engine.SC(r.PathValue("name"))
	if !ok {
		http.Error(w, "unknown document", http.StatusNotFound)
		return
	}
	query := r.URL.Query()

	cfg := core.Config{LOD: document.LODParagraph, Notion: content.NotionQIC}
	if s := query.Get("lod"); s != "" {
		lod, err := planner.ParseLOD(s)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		cfg.LOD = lod
	}
	if s := query.Get("notion"); s != "" {
		notion, err := planner.ParseNotion(s)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		cfg.Notion = notion
	}
	icCut := 1.0
	if s := query.Get("ic"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil || !(v > 0 && v <= 1) { // the negated form also refuses NaN
			http.Error(w, "ic must be in (0, 1]", http.StatusBadRequest)
			return
		}
		icCut = v
	}
	qv := textproc.QueryVector(query.Get("q"))

	ranked, err := sc.RankUnits(cfg.LOD, cfg.Notion, qv)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	total := 0.0
	for _, ru := range ranked {
		total += ru.Score
	}

	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("X-Document-Title", sc.Doc().Title)
	flusher, _ := w.(http.Flusher)
	ctx := r.Context()
	accrued := 0.0
	for _, ru := range ranked {
		// A weakly-connected browser going away mid-stream cancels the
		// request context; stop ranking work for a dead reader.
		if ctx.Err() != nil {
			return
		}
		share := ru.Score
		if total > 0 {
			share /= total
		}
		fmt.Fprintf(w, "── %s %s (score %.4f) %s\n", ru.Unit.Level, ru.Unit.Label, share, ru.Unit.Title)
		text := ru.Unit.OwnAndDescendantText()
		if text != "" {
			fmt.Fprintln(w, text)
		}
		fmt.Fprintln(w)
		if flusher != nil {
			flusher.Flush()
		}
		accrued += share
		if accrued >= icCut {
			fmt.Fprintf(w, "── stopped at information content %.3f ──\n", accrued)
			return
		}
	}
}

// handleDocRemote serves GET /doc off the packet transport (SetFetcher
// mode): the reconstructed document body, with the serving replica and
// capability tier in response headers, and the fetch tier's shed /
// degraded refusals mapped onto 503 + Retry-After.
func (h *Handler) handleDocRemote(w http.ResponseWriter, r *http.Request) {
	query := r.URL.Query()
	opts := transport.FetchOptions{
		Doc:     r.PathValue("name"),
		Query:   query.Get("q"),
		Caching: true,
	}
	if s := query.Get("codec"); s != "" {
		codec, err := erasure.ParseCodec(s)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		opts.Codec = codec
	}
	if s := query.Get("lod"); s != "" {
		lod, err := planner.ParseLOD(s)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		opts.LOD = lod
	}
	if s := query.Get("notion"); s != "" {
		notion, err := planner.ParseNotion(s)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		opts.Notion = notion
	}
	res, err := h.fetcher.Fetch(opts)
	rec := obs.FetchRecord{Doc: opts.Doc, Origin: "gateway", Err: transport.ErrorClass(err)}
	if res != nil {
		rec.Rounds = res.Rounds
		rec.Reconnects = res.Reconnects
		rec.Received = res.PacketsReceived
		rec.Corrupted = res.PacketsCorrupted
		rec.Held = res.HeldPackets
		rec.Replica = res.Replica
	}
	h.fetchLog.Record(rec)
	if err != nil {
		h.writeFetchError(w, err)
		return
	}
	if res.Replica != "" {
		w.Header().Set("X-Mobweb-Replica", res.Replica)
	}
	capability := res.Capability
	if capability == "" {
		capability = transport.CapFull.String()
	}
	w.Header().Set("X-Mobweb-Capability", capability)
	if res.Codec != "" {
		// The codec the fetch tier actually served with — a degraded
		// replica may answer a fountain request with the fixed-rate codec.
		w.Header().Set("X-Mobweb-Codec", res.Codec)
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(res.Body)
}

// writeFetchError maps transport-tier fetch errors onto HTTP statuses:
// shed and degraded refusals are the fleet protecting itself — 503 with
// a Retry-After so stock HTTP clients back off — and anything else is a
// 502 from the gateway's point of view (the backend tier failed).
func (h *Handler) writeFetchError(w http.ResponseWriter, err error) {
	var shed *transport.ShedError
	switch {
	case errors.As(err, &shed):
		h.unavailable.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(shed.RetryAfter)))
		http.Error(w, "fetch tier shedding load", http.StatusServiceUnavailable)
	case errors.Is(err, transport.ErrShed):
		h.unavailable.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(0)))
		http.Error(w, "fetch tier shedding load", http.StatusServiceUnavailable)
	case errors.Is(err, transport.ErrDegraded):
		h.unavailable.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(0)))
		http.Error(w, "fetch tier degraded below document fetching", http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusBadGateway)
	}
}

// retryAfterSeconds converts the shed hint to whole seconds for the
// Retry-After header, rounding up so the client never retries before
// the hinted moment; non-positive hints become the minimum of 1 s.
func retryAfterSeconds(d time.Duration) int {
	if d <= 0 {
		return 1
	}
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are gone; nothing recoverable remains.
		return
	}
}
