// Package planner is the shared planning service between the front ends
// (TCP transport, HTTP gateway) and the FT-MRT core. It owns request
// resolution once:
//
//   - canonical plan keys: document name + resolved LOD + notion + γ +
//     packet geometry + a canonicalized query-vector hash, so textually
//     different queries with the same occurrence vector share a plan;
//   - two instances of the one byte-budgeted singleflight LRU
//     (framecache.Cache): immutable *core.Plan values, so N concurrent
//     fetches of one key trigger exactly one core.NewPlan build, and the
//     cooked wire frames those plans produce;
//   - one version token per document, which prefixes both caches' keys
//     and names their invalidation group: the first resolution to see a
//     re-indexed document retires everything built from the old one;
//   - client-facing parameter validation (LOD/notion spellings, γ), so
//     malformed requests fail fast with a safe message instead of a deep
//     core/erasure error string.
//
// Plans hold no cooked bytes; the frame cache is the one store of them.
// A repeat fetch of a cached plan therefore performs zero ranking work,
// and a repeat of frames still cached zero GF(2^8) encodes — the
// retransmission hot path of the paper's Caching strategy becomes a map
// lookup.
package planner

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"time"

	"mobweb/internal/content"
	"mobweb/internal/core"
	"mobweb/internal/erasure"
	"mobweb/internal/framecache"
	"mobweb/internal/gf256"
	"mobweb/internal/search"
	"mobweb/internal/textproc"
)

// DefaultCacheBytes is the plan-cache byte budget applied when
// Options.CacheBytes is zero.
const DefaultCacheBytes = 64 << 20

// frameOverhead approximates the per-entry bookkeeping charged against
// the frame budget on top of the frame bytes and the plan key: the map
// cells and the list element.
const frameOverhead = 160

// Options tunes a Planner.
type Options struct {
	// Defaults are the plan parameters applied when a request leaves
	// them unset (the transport server's ServerOptions.Defaults).
	Defaults core.Config
	// CacheBytes bounds the estimated total bytes of cached plans. Zero
	// selects DefaultCacheBytes; a negative value retains nothing, so
	// every resolution builds (concurrent identical builds are still
	// deduplicated).
	CacheBytes int64
	// FrameCacheBytes bounds the shared cooked-frame cache behind
	// ResolveFrames (encoded wire frames, directly writable to sockets).
	// Zero selects framecache.DefaultCacheBytes; a negative value
	// retains nothing, so every Frame call cooks (concurrent cooks of one
	// frame are still deduplicated).
	FrameCacheBytes int64
}

// Request names one plan to resolve, in wire spellings. Empty LOD/Notion
// and zero Gamma fall back to the planner's defaults.
type Request struct {
	// Doc is the document name.
	Doc string
	// Query is the free-text query whose occurrence vector orders units.
	Query string
	// LOD is the level-of-detail spelling (see ParseLOD).
	LOD string
	// Notion is the content-notion spelling (see ParseNotion).
	Notion string
	// Gamma is the redundancy ratio; zero uses the default.
	Gamma float64
	// Codec is the codec the plan is served under, which picks the
	// layout the Resolved handle carries. It is not part of the plan's
	// key: both codecs' layouts come from the one plan.
	Codec erasure.CodecID
}

// RequestError is a client-caused resolution failure carrying a message
// safe to surface verbatim to the client.
type RequestError struct {
	// NotFound distinguishes "no such document" (HTTP 404) from a bad
	// parameter (HTTP 400).
	NotFound bool
	// Msg is the client-facing message.
	Msg string
}

// Error implements error.
func (e *RequestError) Error() string { return e.Msg }

func badRequest(format string, args ...any) *RequestError {
	return &RequestError{Msg: fmt.Sprintf(format, args...)}
}

// Stats is a point-in-time snapshot of the plan cache's counters, in the
// spirit of an expvar export.
type Stats struct {
	// Hits counts resolutions served from the cache.
	Hits int64
	// Misses counts resolutions that started or joined a build.
	Misses int64
	// Coalesced counts the misses that joined an in-flight build instead
	// of starting their own (singleflight savings).
	Coalesced int64
	// Builds counts completed core.NewPlan calls.
	Builds int64
	// BuildTime is the cumulative wall time spent inside core.NewPlan.
	BuildTime time.Duration
	// Evictions counts cache entries dropped to respect the budget.
	Evictions int64
	// Invalidations counts cached plans dropped because their document
	// was re-indexed since the plan was built.
	Invalidations int64
	// Entries and Bytes describe the cache's current occupancy.
	Entries int
	Bytes   int64
	// GFKernel names the GF(2^8) slice kernel this CPU runs for every
	// encode behind the cached plans: "avx2" or "table", fixed by CPUID
	// at start-up (see gf256.KernelName).
	GFKernel string
}

// docVersion is the planner's view of one document name: the SC its
// current plans are ranked against and the token that stands for it in
// cache keys. Holding the SC pins it, so a later SC can never reuse the
// pointer while the comparison in current still matters.
type docVersion struct {
	sc    *content.SC
	token string
}

// Planner resolves fetch requests into immutable transmission plans,
// caching and deduplicating builds. It is safe for concurrent use.
type Planner struct {
	engine   *search.Engine
	defaults core.Config
	plans    *framecache.Cache[string, *planEntry]
	frames   *framecache.Cache[framecache.Key, []byte]

	// mu guards the version table. It is held across Engine.SC and the
	// two Invalidate calls, so it sits strictly outside the engine's and
	// the caches' mutexes; none of them ever calls back into the planner.
	mu       sync.Mutex
	versions map[string]docVersion // document name → current version
	seq      uint64                // last token minted
}

// New wraps a search engine as a planning service.
func New(engine *search.Engine, opts Options) (*Planner, error) {
	if engine == nil {
		return nil, fmt.Errorf("planner: nil engine")
	}
	if opts.CacheBytes == 0 {
		opts.CacheBytes = DefaultCacheBytes
	}
	return &Planner{
		engine:   engine,
		defaults: opts.Defaults,
		plans:    framecache.New[string, *planEntry](opts.CacheBytes),
		frames:   framecache.New[framecache.Key, []byte](opts.FrameCacheBytes),
		versions: make(map[string]docVersion),
	}, nil
}

// Resolve returns the plan for a request, from cache when possible. A
// *RequestError signals a client-caused failure whose message is safe to
// forward; any other error is an internal build failure.
func (p *Planner) Resolve(req Request) (*core.Plan, error) {
	r, err := p.ResolveFrames(req)
	if err != nil {
		return nil, err
	}
	return r.Plan, nil
}

// Resolved couples a plan with the identity the shared frame cache keys
// by, and with the layout its codec serves. It is built once per cached
// plan and codec and shared by every resolution of them, so it is
// immutable: Layout and LayoutBinary are read, never written. Frame
// results are SHARED AND IMMUTABLE slices too; callers that must mutate
// one (e.g. fault injection) copy it first.
type Resolved struct {
	// Plan is the resolved transmission plan.
	Plan *core.Plan
	// Key is the versioned plan key: the document-version token, then the
	// canonical plan key, so frames of a re-indexed document never
	// collide with frames of its replacement.
	Key string
	// Layout is the geometry a fetch header carries under the codec the
	// request named (Layout.Codec); its seed is the plan's digest.
	// LayoutBinary is its binary encoding (core.Layout.AppendBinary), the
	// bytes the header sends.
	Layout       core.Layout
	LayoutBinary []byte
	// version is the token Key starts with and the invalidation group of
	// everything cached for this handle.
	version string
	planner *Planner
}

// planEntry is one cached plan with its Resolved handle per codec, each
// built on the first resolution that asks for it: a plan's layout is
// computed and encoded once per codec, not once per fetch.
type planEntry struct {
	plan     *core.Plan
	byCodec  [2]sync.Once
	resolved [2]*Resolved
}

// handle returns the entry's Resolved for codec, building it once.
func (e *planEntry) handle(p *Planner, key, version string, codec erasure.CodecID) *Resolved {
	i := 0
	if codec == erasure.CodecFountain {
		i = 1
	}
	e.byCodec[i].Do(func() {
		r := &Resolved{Plan: e.plan, Key: key, version: version, planner: p}
		if codec == erasure.CodecFountain {
			r.Layout = e.plan.FountainLayout(e.plan.Digest())
		} else {
			r.Layout = e.plan.Layout()
		}
		r.LayoutBinary, _ = r.Layout.MarshalBinary() // never fails
		e.resolved[i] = r
	})
	return e.resolved[i]
}

// ResolveFrames resolves a request into a frame-serving handle. Errors
// are as for Resolve.
func (p *Planner) ResolveFrames(req Request) (*Resolved, error) {
	sc, version, ok := p.current(req.Doc)
	if !ok {
		return nil, &RequestError{NotFound: true, Msg: fmt.Sprintf("unknown document %q", req.Doc)}
	}
	cfg, queryVec, err := p.resolveParams(req)
	if err != nil {
		return nil, err
	}
	key := cacheKey(version, req.Doc, cfg, queryVec)
	entry, err := p.plans.GetOrLoad(key, version, func() (*planEntry, int64, error) {
		plan, err := core.NewPlan(sc, queryVec, cfg)
		if err != nil {
			return nil, 0, err
		}
		return &planEntry{plan: plan}, p.charge(req.Doc, version, planCost(plan)), nil
	})
	if err != nil {
		return nil, err
	}
	return entry.handle(p, key, version, req.Codec), nil
}

// current returns the document's SC and its version token. The first
// call to see a new SC for a name mints the next token and retires the
// old one in both caches: every plan and frame built from the previous
// document goes at once, whatever key it sat under, and loads in flight
// for it are served to their waiters but not cached. Reading the SC
// under p.mu makes a name's versions follow the engine's order, so a
// resolution that raced a re-index cannot bring a retired version back.
func (p *Planner) current(doc string) (*content.SC, string, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	sc, ok := p.engine.SC(doc)
	if !ok {
		return nil, "", false
	}
	v := p.versions[doc]
	if v.sc != sc {
		if v.sc != nil {
			p.plans.Invalidate(v.token)
			p.frames.Invalidate(v.token)
		}
		p.seq++
		v = docVersion{sc: sc, token: strconv.FormatUint(p.seq, 16)}
		p.versions[doc] = v
	}
	return sc, v.token, true
}

// charge is what a load reports as its cost: cost while version is still
// the document's current one, and more than any budget admits once it
// has been retired. It runs inside the load, while the cache holds the
// flight: a retirement that came first is seen here, one that comes later
// finds the flight and poisons it, so no entry outlives its version.
func (p *Planner) charge(doc, version string, cost int64) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.versions[doc].token != version {
		return math.MaxInt64
	}
	return cost
}

// Frame returns the cooked wire frame for a global sequence number,
// serving it from the shared frame cache. The returned slice is shared
// and immutable; writing through it corrupts every connection streaming
// the same document.
func (r *Resolved) Frame(seq int) ([]byte, error) {
	gen, row, err := r.Plan.Locate(seq)
	if err != nil {
		return nil, err
	}
	return r.frame(framecache.Key{Plan: r.Key, Gen: gen, Row: row}, seq)
}

// FountainFrame returns the cooked fountain wire frame for (seed, gen,
// seq), serving it from the shared frame cache. Fountain frames are
// cacheable for the same reason fixed-rate ones are — the stream is a
// pure function of (plan, codec, seed, gen, seq) — and the cache key
// carries codec and seed so the two codecs' frames can never collide on
// one plan. The returned slice is shared and immutable.
func (r *Resolved) FountainFrame(seed uint64, gen, seq int) ([]byte, error) {
	return r.frame(framecache.Key{
		Plan:  r.Key,
		Gen:   gen,
		Row:   seq,
		Codec: uint8(erasure.CodecFountain),
		Seed:  seed,
	}, seq)
}

// frame is the one frame-cache lookup behind Frame and FountainFrame;
// seq is the plan-global sequence number a fixed-rate cook needs. A
// frame is charged its bytes, its plan key and frameOverhead.
func (r *Resolved) frame(k framecache.Key, seq int) ([]byte, error) {
	p := r.planner
	// Try the closure-free hit path first; build the cook only on miss.
	if frame, ok := p.frames.Get(k); ok {
		return frame, nil
	}
	return p.frames.GetOrLoad(k, r.version, func() (frame []byte, cost int64, err error) {
		if k.Codec == uint8(erasure.CodecFountain) {
			frame, err = r.Plan.FountainFrame(k.Seed, k.Gen, k.Row)
		} else {
			frame, err = r.Plan.Frame(seq)
		}
		return frame, p.charge(r.Plan.Doc().Name, r.version, int64(len(frame)+len(k.Plan))+frameOverhead), err
	})
}

// FountainSeed is the plan's content digest mixed with a salt. A served
// layout's seed is Plan.Digest itself; only the benchmark's replay calls
// this, with the zero salt.
func (r *Resolved) FountainSeed(salt uint64) uint64 { return r.Plan.Digest() ^ salt }

// FrameStats returns a snapshot of the frame cache's counters.
func (p *Planner) FrameStats() framecache.Stats { return p.frames.Stats() }

// Stats returns a snapshot of the plan cache's counters.
func (p *Planner) Stats() Stats {
	s := p.plans.Stats()
	return Stats{
		Hits:          s.Hits,
		Misses:        s.Misses,
		Coalesced:     s.Coalesced,
		Builds:        s.Cooks,
		BuildTime:     s.CookTime,
		Evictions:     s.Evictions,
		Invalidations: s.Invalidations,
		Entries:       s.Entries,
		Bytes:         s.Bytes,
		GFKernel:      gf256.KernelName(),
	}
}

// String formats the snapshot for logs.
func (s Stats) String() string {
	return fmt.Sprintf("planner{hits %d, misses %d, coalesced %d, builds %d (%v), evictions %d, invalidations %d, entries %d, %d bytes, gf %s}",
		s.Hits, s.Misses, s.Coalesced, s.Builds, s.BuildTime.Round(time.Microsecond), s.Evictions, s.Invalidations, s.Entries, s.Bytes, s.GFKernel)
}

// resolveParams validates the request against the defaults, returning
// the canonical config and the query vector.
func (p *Planner) resolveParams(req Request) (core.Config, map[string]int, error) {
	cfg := p.defaults
	if req.LOD != "" {
		lod, err := ParseLOD(req.LOD)
		if err != nil {
			return core.Config{}, nil, badRequest("%s", err)
		}
		cfg.LOD = lod
	}
	if req.Notion != "" {
		notion, err := ParseNotion(req.Notion)
		if err != nil {
			return core.Config{}, nil, badRequest("%s", err)
		}
		cfg.Notion = notion
	}
	if err := ValidateGamma(req.Gamma); err != nil {
		return core.Config{}, nil, badRequest("%s", err)
	}
	if !req.Codec.Valid() {
		return core.Config{}, nil, badRequest("unknown codec %d", req.Codec)
	}
	if req.Gamma != 0 {
		cfg.Gamma = req.Gamma
	}
	canonical, err := cfg.Canonical()
	if err != nil {
		// A bad server default (not client input) — still client-visible,
		// matching the pre-planner behaviour of surfacing the message.
		return core.Config{}, nil, badRequest("%s", err)
	}
	var queryVec map[string]int
	if req.Query != "" {
		queryVec = textproc.QueryVector(req.Query)
	}
	return canonical, queryVec, nil
}

// cacheKey canonicalizes a resolved request behind its document-version
// token. Everything that changes the resulting plan participates; the
// query enters as the FNV-64a hash of its sorted occurrence vector, each
// term written "term=count;", so queries that stem to the same vector
// share a key. The key is built in one stack buffer, which also holds
// each count's digits on their way into the hash: the key string is the
// one allocation of a query-free resolve.
func cacheKey(version, doc string, cfg core.Config, queryVec map[string]int) string {
	var terms []string
	if len(queryVec) > 0 {
		terms = make([]string, 0, len(queryVec))
		for t := range queryVec {
			terms = append(terms, t)
		}
		slices.Sort(terms)
	}
	var buf [160]byte
	h := uint64(fnvOffset64)
	for _, t := range terms {
		b := append(append(buf[:0], t...), '=')
		b = append(strconv.AppendInt(b, int64(queryVec[t]), 10), ';')
		for _, c := range b {
			h = (h ^ uint64(c)) * fnvPrime64
		}
	}
	b := append(buf[:0], version...)
	b = append(append(b, 0), doc...)
	b = strconv.AppendInt(append(b, 0), int64(cfg.LOD), 10)
	b = strconv.AppendInt(append(b, 0), int64(cfg.Notion), 10)
	b = strconv.AppendUint(append(b, 0), math.Float64bits(cfg.Gamma), 16)
	b = strconv.AppendInt(append(b, 0), int64(cfg.PacketSize), 10)
	b = strconv.AppendInt(append(b, 0), int64(cfg.MaxGeneration), 10)
	b = strconv.AppendUint(append(b, 0), h, 16)
	return string(b)
}

// FNV-64a's parameters (hash/fnv).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// planCost estimates a plan's resident bytes: the body and permuted
// copies, per-segment bookkeeping, and the layout of the one codec a
// server usually serves it under (a SegmentMeta and about 24 encoded
// bytes a segment). Cooked parity is not the plan's to charge; the frame
// cache charges each frame it keeps.
func planCost(plan *core.Plan) int64 {
	segs := len(plan.Segments()) + len(plan.AccrualSegments())
	return int64(2*plan.BodySize()) + int64((128+96)*segs) + 512
}
