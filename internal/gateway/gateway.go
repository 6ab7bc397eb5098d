// Package gateway is the WWW-server half of Figure 1: an HTTP front end
// over the document collection that lets a conventional browser consume
// multi-resolution content. Four endpoints:
//
//	GET /search?q=...&limit=N      → JSON list of hits
//	GET /sc/{name}?q=...           → JSON structural characteristic
//	                                 (per-unit IC/QIC/MQIC)
//	GET /layout/{name}?q=...       → the FT-MRT transmission geometry
//	GET /doc/{name}?q=...&lod=...&notion=...&codec=...&ic=0.4
//	                               → the document's units as text/plain,
//	                                 highest content first, one flushed
//	                                 block per unit, cut off at the
//	                                 requested information content
//
// The gateway is a front end of the process's one transport.Server, the
// TCP transmitter's peer rather than a second transmitter. /doc is a
// rendering of the packet transport: each request is one fetch through
// the handler's Fetcher, and the body is the receiver's unit stream
// (transport.Progress.NewUnits) written as it decodes; the receiver's
// accrued information content is the only cut-off rule, and reaching ic
// makes the client send stop. The default Fetcher pipes into the server,
// so a /doc fetch meets the same capability tier, admission budget,
// channel, pacing, caches and metrics as a TCP one; SetFetcher swaps in
// one that crosses to another replica or a shard front. Nothing else
// differs between the two: the same parameters refused, the same bytes
// for the same URL (curl -N shows the most relevant paragraphs arriving
// first). /layout is the server's own answer to the same request
// (transport.Server.Layout), the geometry its fetch header carries.
package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
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

// Fetcher downloads a document over the FT-MRT packet transport, stopping
// when ctx does. *transport.Client satisfies it, whether dialled straight
// at one replica or at a shard front.
type Fetcher interface {
	FetchContext(ctx context.Context, opts transport.FetchOptions) (*transport.FetchResult, error)
}

// pipeFetcher is the default Fetcher: the packet transport with no hop to
// cross, a fresh net.Pipe per fetch between a client and the process's
// server.
type pipeFetcher struct{ srv *transport.Server }

func (p pipeFetcher) FetchContext(ctx context.Context, opts transport.FetchOptions) (*transport.FetchResult, error) {
	near, far := net.Pipe()
	c := transport.NewClient(near)
	defer c.Close() // ends the server's handler too
	if err := p.srv.ServeConn(far); err != nil {
		return nil, err
	}
	return c.FetchContext(ctx, opts)
}

// Handler serves the gateway endpoints. Construct with New.
type Handler struct {
	engine *search.Engine
	srv    *transport.Server
	mux    *http.ServeMux
	// fetcher runs every GET /doc: in process until SetFetcher.
	fetcher Fetcher
	// requests counts gateway requests when a metrics registry is
	// attached via SetMetrics; nil (no-op) otherwise.
	requests *obs.Counter
	// unavailable counts /doc requests refused with 503 because the
	// fetch tier shed them or was degraded below fetching.
	unavailable *obs.Counter
	// fetchLog receives one record per /doc request; nil without a registry.
	fetchLog *obs.FetchLog
}

var _ http.Handler = (*Handler)(nil)

// New serves srv's document collection over HTTP: srv is the process's
// transmitter, built by transport.NewServer, and the gateway resolves and
// fetches through it.
func New(srv *transport.Server) (*Handler, error) {
	if srv == nil || srv.Engine() == nil {
		return nil, fmt.Errorf("gateway: need a transport.NewServer server")
	}
	h := &Handler{engine: srv.Engine(), srv: srv, mux: http.NewServeMux(), fetcher: pipeFetcher{srv}}
	h.mux.HandleFunc("GET /search", h.handleSearch)
	h.mux.HandleFunc("GET /sc/{name}", h.handleSC)
	h.mux.HandleFunc("GET /doc/{name}", h.handleDoc)
	h.mux.HandleFunc("GET /layout/{name}", h.handleLayout)
	return h, nil
}

// SetMetrics attaches a metrics registry to the gateway: every request is
// counted and two debug endpoints are mounted on the gateway mux:
//
//	GET /debug/metrics      → point-in-time registry snapshot (counters,
//	                          gauges, histograms, probe output) as JSON
//	GET /debug/fetches?n=K  → recent fetch records, newest first
//
// Call it once, before serving; a nil registry is a no-op. The registry is
// typically the server's own (ServerOptions.Metrics), which carries the
// planner and frame-cache probes, so one scrape shows both HTTP and
// packet-transport activity.
func (h *Handler) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	h.requests = reg.Counter("gateway.requests")
	h.unavailable = reg.Counter("gateway.unavailable")
	h.fetchLog = reg.FetchLog()
	h.mux.Handle("GET /debug/metrics", obs.MetricsHandler(reg))
	h.mux.Handle("GET /debug/fetches", obs.FetchesHandler(reg))
}

// SetFetcher makes GET /doc fetch through f — a client dialled at a
// replica or shard front — instead of the process's server. Call it
// once, before serving; a nil fetcher is a no-op.
func (h *Handler) SetFetcher(f Fetcher) {
	if f != nil {
		h.fetcher = f
	}
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

// fetchOptions is the one parser of the parameters that shape a document
// request — q, lod, notion, codec, gamma and ic — into the fetch that
// carries them, so every endpoint and both fetchers refuse the same inputs
// with the same 400. An empty lod or notion is the gateway's own default,
// paragraph and QIC, whatever the tier's: a q= must order the units. The
// others' empty means the serving tier's default.
func fetchOptions(r *http.Request) (transport.FetchOptions, error) {
	query := r.URL.Query()
	opts := transport.FetchOptions{Doc: r.PathValue("name"), Query: query.Get("q"), Caching: true,
		LOD: document.LODParagraph, Notion: content.NotionQIC}
	var err error
	if s := query.Get("lod"); s != "" {
		if opts.LOD, err = planner.ParseLOD(s); err != nil {
			return opts, err
		}
	}
	if s := query.Get("notion"); s != "" {
		if opts.Notion, err = planner.ParseNotion(s); err != nil {
			return opts, err
		}
	}
	if s := query.Get("codec"); s != "" {
		if opts.Codec, err = erasure.ParseCodec(s); err != nil {
			return opts, err
		}
	}
	if s := query.Get("gamma"); s != "" {
		// gamma=0 is a bad request here, not the planner's "use the default".
		if opts.Gamma, err = strconv.ParseFloat(s, 64); err != nil || opts.Gamma == 0 || planner.ValidateGamma(opts.Gamma) != nil {
			return opts, errors.New("gamma must be a finite number >= 1")
		}
	}
	if s := query.Get("ic"); s != "" {
		opts.StopAtIC, err = strconv.ParseFloat(s, 64)
		if err != nil || !(opts.StopAtIC > 0 && opts.StopAtIC <= 1) { // the negated form also refuses NaN
			return opts, errors.New("ic must be in (0, 1]")
		}
	}
	return opts, nil
}

// handleLayout returns the FT-MRT transmission geometry for a document,
// letting an HTTP-bootstrapped client build a core.Receiver and then
// consume the packet transport for the wireless hop. The body is what the
// packet transport's response line carries in its layout member: one JSON
// string, the base64 of core.Layout's binary encoding (DESIGN.md §19), so
// json.Unmarshal into a core.Layout — or base64 -d and UnmarshalBinary —
// reads it, and Validate judges it. Query parameters are /doc's; the
// server decides the layout as it decides a fetch's, seed included (the
// plan's content digest), and refuses what it would refuse the fetch
// with /doc's status.
func (h *Handler) handleLayout(w http.ResponseWriter, r *http.Request) {
	opts, err := fetchOptions(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	layout, err := h.srv.Layout(opts)
	if err != nil {
		h.writeFetchError(w, err)
		return
	}
	writeJSON(w, layout)
}

// writeUnit is the one rendering of a unit: a rule naming it, its text
// (a body extent, less the separator it ends in), a blank line.
func writeUnit(w io.Writer, u core.RenderedUnit) {
	seg := u.Segment
	fmt.Fprintf(w, "── %s %s (score %.4f) %s\n", seg.Level, seg.Label, seg.Score, seg.Title)
	if text := strings.TrimSpace(u.Text); text != "" {
		fmt.Fprintln(w, text)
	}
	fmt.Fprintln(w)
}

// handleDoc serves GET /doc as one transport fetch, writing and flushing
// each unit the receiver completes. Status and the X-Mobweb-Replica,
// -Capability and -Codec headers are settled before the first byte: a
// fetch that fails with nothing written is a 4xx/5xx (writeFetchError),
// one cut short after that ends the body with a terminal line saying so.
// A browser going away cancels the request context and with it the fetch.
func (h *Handler) handleDoc(w http.ResponseWriter, r *http.Request) {
	opts, err := fetchOptions(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Best effort: this engine need not index what the fetch tier serves.
	if sc, ok := h.engine.SC(opts.Doc); ok {
		w.Header().Set("X-Document-Title", sc.Doc().Title)
	}
	started := false
	start := func(replica, capability, codec string) {
		if started {
			return
		}
		started = true
		if replica != "" {
			w.Header().Set("X-Mobweb-Replica", replica)
		}
		if capability == "" {
			capability = transport.CapFull.String()
		}
		w.Header().Set("X-Mobweb-Capability", capability)
		if codec != "" {
			// The codec the fetch tier actually serves with — a degraded
			// replica may answer a fountain request with the fixed-rate codec.
			w.Header().Set("X-Mobweb-Codec", codec)
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	}
	flush := http.NewResponseController(w).Flush // fails only where w cannot flush
	ic := 0.0                                    // the receiver's accrual as of the last frame
	opts.OnProgress = func(p transport.Progress) {
		ic = p.InfoContent
		for _, u := range p.NewUnits {
			start(p.Replica, p.Capability, p.Codec)
			writeUnit(w, u)
			_ = flush()
		}
	}
	res, err := h.fetcher.FetchContext(r.Context(), opts)
	if res == nil {
		res = &transport.FetchResult{}
	}
	rec := obs.FetchRecord{Doc: opts.Doc, Origin: "gateway", Err: transport.ErrorClass(err), Replica: res.Replica,
		Rounds: res.Rounds, Reconnects: res.Reconnects, Received: res.PacketsReceived, Corrupted: res.PacketsCorrupted, Held: res.HeldPackets}
	h.fetchLog.Record(rec)
	switch {
	case err != nil && !started:
		h.writeFetchError(w, err)
	case err != nil:
		fmt.Fprintf(w, "── fetch ended: %s at information content %.3f ──\n", rec.Err, ic)
	default:
		start(res.Replica, res.Capability, res.Codec)
		if res.Body == nil {
			fmt.Fprintf(w, "── stopped at information content %.3f ──\n", ic)
		}
	}
}

// writeFetchError maps a fetch that failed before its first unit, or a
// layout the server would not serve, onto an HTTP status. Shed and degraded refusals are the fleet protecting itself:
// 503 with a Retry-After, so stock HTTP clients back off without knowing
// the packet protocol. A plain refusal is 404: with the parameters vetted
// by fetchOptions, the document name is what is left to turn down.
// Anything else is a 502 (the backend tier failed).
func (h *Handler) writeFetchError(w http.ResponseWriter, err error) {
	var msg string
	switch {
	case errors.Is(err, transport.ErrShed):
		msg = "fetch tier shedding load"
	case errors.Is(err, transport.ErrDegraded):
		msg = "fetch tier degraded below document fetching"
	case transport.ErrorClass(err) == "refused":
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	default:
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	h.unavailable.Inc()
	var hint time.Duration // zero, the minimum, unless the refusal carries one
	var shed *transport.ShedError
	if errors.As(err, &shed) {
		hint = shed.RetryAfter
	}
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(hint)))
	http.Error(w, msg, http.StatusServiceUnavailable)
}

// retryAfterSeconds converts the shed hint to whole seconds for the
// Retry-After header, rounding up so the client never retries before
// the hinted moment; non-positive hints become the minimum of 1 s.
func retryAfterSeconds(d time.Duration) int {
	if d <= 0 {
		return 1
	}
	return int((d + time.Second - 1) / time.Second)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	// On an error the headers are gone; nothing recoverable remains.
	_ = json.NewEncoder(w).Encode(v)
}
