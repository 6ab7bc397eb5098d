// Package mobweb is a Go implementation of fault-tolerant
// multi-resolution transmission (FT-MRT) for browsing web documents over
// weakly-connected mobile channels, reproducing "On Supporting
// Weakly-Connected Browsing in a Mobile Web Environment" (Leong, McLeod,
// Si, Yau — ICDCS 2000).
//
// The library covers the full pipeline of the paper:
//
//   - parsing XML (and heuristically HTML) documents into a tree of
//     organizational units at five levels of detail;
//   - computing information content (IC), query-based information content
//     (QIC) and its modified variant (MQIC) per unit;
//   - ranking and transmitting units highest-content-first, packetized
//     and expanded with a systematic Vandermonde information-dispersal
//     code so that any M of N cooked packets reconstruct the document;
//   - a client receiver with packet caching across retransmission rounds,
//     progressive rendering, and early termination on relevance judgment;
//   - a TCP client/server realizing the paper's prototype architecture,
//     with pluggable wireless fault injection;
//   - the discrete-event simulator that regenerates the paper's
//     evaluation (Figures 2-7, Tables 1-2).
//
// Quick start:
//
//	doc, _ := mobweb.ParseXML(xmlBytes, "paper.xml")
//	an, _ := mobweb.Analyze(doc)
//	plan, _ := an.Plan("mobile web browsing", mobweb.PlanConfig{
//	    LOD:    mobweb.LODParagraph,
//	    Notion: mobweb.NotionQIC,
//	})
//	rcv, _ := mobweb.NewReceiver(plan)
//	for seq := 0; seq < plan.N(); seq++ {
//	    frame, _ := plan.Frame(seq)
//	    rcv.AddFrame(frame) // over any lossy channel
//	}
//	body, _ := rcv.Reconstruct()
package mobweb

import (
	"bytes"
	"fmt"
	"net"
	"net/http"

	"mobweb/internal/channel"
	"mobweb/internal/cluster"
	"mobweb/internal/content"
	"mobweb/internal/core"
	"mobweb/internal/document"
	"mobweb/internal/ewma"
	"mobweb/internal/gateway"
	"mobweb/internal/markup"
	"mobweb/internal/obs"
	"mobweb/internal/planner"
	"mobweb/internal/prefetch"
	"mobweb/internal/profile"
	"mobweb/internal/search"
	"mobweb/internal/session"
	"mobweb/internal/sim"
	"mobweb/internal/store"
	"mobweb/internal/textproc"
	"mobweb/internal/transport"
)

// Re-exported model types. The aliases give external users full access to
// the underlying types and their methods.
type (
	// Document is a structured web document: a tree of organizational
	// units with byte extents.
	Document = document.Document
	// Unit is one organizational unit (document, section, subsection,
	// subsubsection or paragraph).
	Unit = document.Unit
	// LOD is a level of detail.
	LOD = document.LOD
	// Notion selects the information-content definition (IC/QIC/MQIC).
	Notion = content.Notion
	// SC is a document's structural characteristic: unit tree plus
	// keyword index and content scores.
	SC = content.SC
	// Plan is an immutable FT-MRT transmission plan.
	Plan = core.Plan
	// PlanConfig parameterizes plan construction.
	PlanConfig = core.Config
	// Layout is a plan's serializable transmission geometry.
	Layout = core.Layout
	// Receiver accumulates cooked packets client-side.
	Receiver = core.Receiver
	// RenderedUnit is a progressively-renderable unit with its text.
	RenderedUnit = core.RenderedUnit
	// Engine is the keyword search engine over a document collection.
	Engine = search.Engine
	// Hit is one search result with its SC and query vector.
	Hit = search.Hit
	// Server streams documents with FT-MRT over TCP.
	Server = transport.Server
	// ServerOptions tunes the server.
	ServerOptions = transport.ServerOptions
	// Planner is the shared planning service: canonical plan keys, a
	// byte-budgeted LRU plan cache, and singleflight build deduplication.
	Planner = planner.Planner
	// PlannerOptions tunes plan caching and request resolution.
	PlannerOptions = planner.Options
	// Client fetches documents over TCP with caching and progressive
	// rendering.
	Client = transport.Client
	// FetchOptions parameterizes a client fetch.
	FetchOptions = transport.FetchOptions
	// FetchResult summarizes a fetch; on terminal errors it is returned
	// partially filled alongside the error.
	FetchResult = transport.FetchResult
	// PrefetchResult reports a prefetch window's received/intact counts.
	PrefetchResult = transport.PrefetchResult
	// RetryPolicy bounds client reconnection (attempts, backoff) after a
	// mid-fetch connection failure.
	RetryPolicy = transport.RetryPolicy
	// Progress reports per-frame download progress.
	Progress = transport.Progress
	// FaultInjector emulates the wireless hop on the live transport.
	FaultInjector = transport.FaultInjector
	// ChaosPolicy schedules deterministic connection kills for
	// disconnection drills.
	ChaosPolicy = transport.ChaosPolicy
	// ChaosListener wraps a listener so accepted connections die on the
	// policy's seeded schedule.
	ChaosListener = transport.ChaosListener
	// Metrics is the observability registry: named atomic counters,
	// gauges and histograms plus scrape-time probes and the fetch log.
	// Wire one into ServerOptions.Metrics, Client.Metrics and
	// Gateway.SetMetrics; a nil registry disables all instrumentation at
	// one branch per event.
	Metrics = obs.Registry
	// FetchTrace is a bounded per-fetch event timeline; attach one via
	// FetchOptions.Trace.
	FetchTrace = obs.Trace
	// Gateway is the HTTP front end of Figure 1's WWW server; SetMetrics
	// mounts the /debug endpoints on it.
	Gateway = gateway.Handler
	// SimParams parameterizes the paper's evaluation model.
	SimParams = sim.Params
	// SimResult aggregates a simulation run.
	SimResult = sim.Result
	// Profile is an adaptive user-interest vector with relevance
	// feedback (§6's user-profiling extension).
	Profile = profile.Profile
	// ProfileConfig tunes profile adaptation.
	ProfileConfig = profile.Config
	// ProfileFeedback is one browsing outcome folded into a profile.
	ProfileFeedback = profile.Feedback
	// PrefetchCandidate is one prefetchable next document.
	PrefetchCandidate = prefetch.Candidate
	// PrefetchAllocation assigns idle budget to a candidate.
	PrefetchAllocation = prefetch.Allocation
	// ProfileCandidate is a scored document offered to PredictTopK.
	ProfileCandidate = profile.Candidate
	// ProfilePrediction is one entry of a top-k prefetch shortlist.
	ProfilePrediction = profile.Prediction
	// Store is the client's packet state (Client.Store): cooked packets
	// and decoded generations from fetches and prefetches alike. On a
	// directory it is crash-safe and persistent, so a restarted client
	// resumes with its Have/DoneGens lists; on "" it lives in RAM.
	Store = store.Store
	// StoreOptions bounds the store's segment log.
	StoreOptions = store.Options
	// Cluster groups hierarchically linked pages into the paper's larger
	// browsing unit.
	Cluster = cluster.Cluster
	// Session orchestrates the full mobile browsing loop: personalized
	// search, skims at the relevance threshold, reads with feedback, and
	// think-time prefetching.
	Session = session.Session
	// SessionOptions tunes the browsing policy.
	SessionOptions = session.Options
)

// Levels of detail, coarsest first.
const (
	LODDocument      = document.LODDocument
	LODSection       = document.LODSection
	LODSubsection    = document.LODSubsection
	LODSubsubsection = document.LODSubsubsection
	LODParagraph     = document.LODParagraph
)

// Information-content notions.
const (
	NotionIC   = content.NotionIC
	NotionQIC  = content.NotionQIC
	NotionMQIC = content.NotionMQIC
)

// ParseXML parses an XML document with the default research-paper tag
// mapping.
func ParseXML(data []byte, name string) (*Document, error) {
	return markup.ParseXML(bytes.NewReader(data), name, markup.DefaultTagMap())
}

// ParseHTML extracts structure from an HTML page via heading heuristics.
func ParseHTML(data []byte, name string) (*Document, error) {
	return markup.ParseHTML(bytes.NewReader(data), name)
}

// Analysis bundles a document with its keyword index and structural
// characteristic.
type Analysis struct {
	// Doc is the analyzed document.
	Doc *Document
	// SC is its structural characteristic.
	SC *SC
}

// Analyze runs the five-stage SC-generation pipeline (§3.3) on a
// document.
func Analyze(doc *Document) (*Analysis, error) {
	if doc == nil {
		return nil, fmt.Errorf("mobweb: nil document")
	}
	idx, err := textproc.BuildIndex(doc, textproc.Options{})
	if err != nil {
		return nil, err
	}
	sc, err := content.Build(doc, idx)
	if err != nil {
		return nil, err
	}
	return &Analysis{Doc: doc, SC: sc}, nil
}

// QueryVector converts a free-text query into the occurrence vector used
// by QIC/MQIC ranking.
func QueryVector(query string) map[string]int {
	return textproc.QueryVector(query)
}

// Plan builds an FT-MRT transmission plan, ranking units for the query
// (empty query falls back to static IC ordering).
func (a *Analysis) Plan(query string, cfg PlanConfig) (*Plan, error) {
	var qv map[string]int
	if query != "" {
		qv = textproc.QueryVector(query)
	}
	return core.NewPlan(a.SC, qv, cfg)
}

// NewReceiver returns an empty receiver for a plan.
func NewReceiver(plan *Plan) (*Receiver, error) { return core.NewReceiver(plan) }

// NewReceiverFromLayout builds a receiver from serialized geometry (the
// remote-client path).
func NewReceiverFromLayout(layout Layout) (*Receiver, error) {
	return core.NewReceiverFromLayout(layout)
}

// NewEngine returns an empty search engine.
func NewEngine() *Engine { return search.NewEngine(textproc.Options{}) }

// NewServer wraps an engine as an FT-MRT transmission server.
func NewServer(engine *Engine, opts ServerOptions) (*Server, error) {
	return transport.NewServer(engine, opts)
}

// NewPlanner wraps an engine as a planning service, for a server whose
// plan and frame caches need budgets of their own (ServerOptions.Planner).
func NewPlanner(engine *Engine, opts PlannerOptions) (*Planner, error) {
	return planner.New(engine, opts)
}

// Dial connects a client to a transmission server. The client keeps the
// address for redialing, so fetches survive connection death (tune with
// Client.Retry; disable with NoRetry).
func Dial(addr string) (*Client, error) { return transport.Dial(addr) }

// NoRetry disables client reconnection: the first connection failure is
// terminal.
var NoRetry = transport.NoRetry

// Terminal fetch-failure classes. Fetch returns the partial FetchResult
// alongside these, so callers can still use rendered units, accrued
// information content, and held packets.
var (
	// ErrDisconnected marks a fetch that lost its connection and could
	// not re-establish it.
	ErrDisconnected = transport.ErrDisconnected
	// ErrRoundsExhausted marks a fetch that spent MaxRounds without
	// completing.
	ErrRoundsExhausted = transport.ErrRoundsExhausted
)

// NewChaosListener wraps a listener so accepted connections are killed,
// stalled and truncated mid-frame on a deterministic seeded schedule —
// a drill harness for the reconnect/resume path.
func NewChaosListener(ln net.Listener, policy ChaosPolicy) *ChaosListener {
	return transport.NewChaosListener(ln, policy)
}

// BernoulliInjector returns a fault injector corrupting each frame
// independently with probability alpha — the paper's channel model on the
// live transport.
func BernoulliInjector(alpha float64, seed int64) (FaultInjector, error) {
	model, err := channel.NewBernoulli(alpha, seed)
	if err != nil {
		return nil, err
	}
	return transport.NewModelInjector(model), nil
}

// NewGateway wraps a transmission server as the HTTP front end of
// Figure 1's WWW server: /search, /sc/{name}, /layout/{name} and
// /doc/{name} endpoints that expose multi-resolution content to
// conventional browsers, fetching and planning through srv.
func NewGateway(srv *Server) (*Gateway, error) { return gateway.New(srv) }

// NewMetrics returns an empty observability registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// NewFetchTrace returns a fetch timeline holding up to capacity events
// (non-positive means the default capacity).
func NewFetchTrace(capacity int) *FetchTrace { return obs.NewTrace(capacity) }

// MetricsHandler serves a registry snapshot as JSON — mount it wherever
// the embedding application exposes debug endpoints.
func MetricsHandler(reg *Metrics) http.Handler { return obs.MetricsHandler(reg) }

// FetchesHandler serves the registry's recent fetch records as JSON,
// newest first (?n= caps the count).
func FetchesHandler(reg *Metrics) http.Handler { return obs.FetchesHandler(reg) }

// NewCluster starts an empty page cluster rooted at rootName.
func NewCluster(name, rootName string) (*Cluster, error) { return cluster.New(name, rootName) }

// NewSession starts a browsing session over a connected client; the
// profile may be nil to disable personalization.
func NewSession(client *Client, prof *Profile, opts SessionOptions) (*Session, error) {
	return session.New(client, prof, opts)
}

// NewProfile returns an empty user-interest profile.
func NewProfile(cfg ProfileConfig) (*Profile, error) { return profile.New(cfg) }

// PlanPrefetch splits an idle-window packet budget across candidate next
// documents, most likely first (§6's intelligent prefetching).
func PlanPrefetch(candidates []PrefetchCandidate, budgetPackets int) ([]PrefetchAllocation, error) {
	return prefetch.Plan(candidates, budgetPackets)
}

// PrefetchBudget converts idle time into a packet budget.
func PrefetchBudget(idleSeconds, bandwidthBPS float64, frameBytes int) int {
	return prefetch.Budget(idleSeconds, bandwidthBPS, frameBytes)
}

// PredictTopK ranks scored candidates into a deterministic top-k
// prefetch shortlist: descending score, ties broken by name, duplicates
// collapsed to their best score.
func PredictTopK(cands []ProfileCandidate, k int) []ProfilePrediction {
	return profile.PredictTopK(cands, k)
}

// OpenStore opens (or recovers) a persistent packet store rooted at dir,
// or a memory-only one when dir is "". Attach it via Client.Store: every
// fetch then seeds from it before touching the wire, and caching fetches
// and prefetches drain back to it after every round. A client that
// prefetches without one gets a memory-only store with default options.
func OpenStore(dir string, opts StoreOptions) (*Store, error) {
	return store.Open(dir, opts)
}

// AlphaEstimator tracks the observed channel failure probability with an
// exponentially-weighted moving average, for adapting the redundancy
// ratio to channel conditions (§4.2).
type AlphaEstimator = ewma.Estimator

// NewAlphaEstimator returns an estimator with smoothing weight w in
// (0, 1].
func NewAlphaEstimator(w float64) (*AlphaEstimator, error) { return ewma.New(w) }

// DefaultSimParams returns Table 2's simulation settings.
func DefaultSimParams() SimParams { return sim.DefaultParams() }

// Simulate runs the paper's evaluation model.
func Simulate(p SimParams) (SimResult, error) { return sim.Run(p) }

// SimImprovement returns the response-time improvement of the given LOD
// over document-LOD transmission (Figures 6-7).
func SimImprovement(p SimParams, lod LOD) (float64, error) {
	return sim.Improvement(p, lod)
}

// ChooseCooked picks the optimal cooked-packet count N for M raw packets
// given an estimated failure probability and target success probability
// (Figure 2's analysis).
func ChooseCooked(m int, alpha, successProb float64) (int, error) {
	return core.ChooseCooked(m, alpha, successProb)
}

// GammaFor returns the optimal redundancy ratio γ = N/M (Figure 3).
func GammaFor(m int, alpha, successProb float64) (float64, error) {
	return core.GammaFor(m, alpha, successProb)
}
