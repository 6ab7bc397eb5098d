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
//     cooked wire frames those plans produce, a block of consecutive rows
//     to an entry;
//   - the document's version, which the search engine mints on every
//     Add and which prefixes both caches' keys: a re-indexed document's
//     plans and frames are never asked for again, and age out of the
//     LRU;
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
// the frame budget on top of a block's bytes and the plan key: the map
// cells, the list element and the Block header.
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
	// ResolveFrames (blocks of encoded wire frames, directly writable to
	// sockets). Zero selects framecache.DefaultCacheBytes; a negative
	// value retains nothing, so every Block call cooks its whole block
	// (concurrent cooks of one block are still deduplicated).
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
	// Evictions counts cache entries dropped to respect the budget;
	// plans of a re-indexed document's old version leave this way too.
	Evictions int64
	// Entries and Bytes describe the cache's current occupancy.
	Entries int
	Bytes   int64
	// GFKernel names the GF(2^8) slice kernel this CPU runs for every
	// encode behind the cached plans: "avx2" or "table", fixed by CPUID
	// at start-up (see gf256.KernelName).
	GFKernel string
}

// Planner resolves fetch requests into immutable transmission plans,
// caching and deduplicating builds. It is safe for concurrent use, and
// holds no lock of its own: the engine and the two caches lock
// themselves, and none of them calls another.
type Planner struct {
	engine   *search.Engine
	defaults core.Config
	plans    *framecache.Cache[string, *planEntry]
	frames   *framecache.Cache[framecache.Key, *Block]
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
		frames:   framecache.New[framecache.Key, *Block](opts.FrameCacheBytes),
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
	// Key is the versioned plan key: the document's version, then the
	// canonical plan key, so frames of a re-indexed document never
	// collide with frames of its replacement.
	Key string
	// Layout is the geometry a fetch header carries under the codec the
	// request named (Layout.Codec); its seed is the plan's digest.
	// LayoutBinary is its binary encoding (core.Layout.AppendBinary), the
	// bytes the header sends.
	Layout       core.Layout
	LayoutBinary []byte
	planner      *Planner
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
func (e *planEntry) handle(p *Planner, key string, codec erasure.CodecID) *Resolved {
	i := 0
	if codec == erasure.CodecFountain {
		i = 1
	}
	e.byCodec[i].Do(func() {
		r := &Resolved{Plan: e.plan, Key: key, planner: p}
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
// are as for Resolve. The SC and its version are read together, so a
// plan is always keyed by the version of the document it was ranked
// against; a build racing a re-index caches its plan under the retired
// version, where no later resolution looks.
func (p *Planner) ResolveFrames(req Request) (*Resolved, error) {
	sc, version, ok := p.engine.Current(req.Doc)
	if !ok {
		return nil, &RequestError{NotFound: true, Msg: fmt.Sprintf("unknown document %q", req.Doc)}
	}
	cfg, queryVec, err := p.resolveParams(req)
	if err != nil {
		return nil, err
	}
	key := cacheKey(version, req.Doc, cfg, queryVec)
	entry, err := p.plans.GetOrLoad(key, func() (*planEntry, int64, error) {
		plan, err := core.NewPlan(sc, queryVec, cfg)
		if err != nil {
			return nil, 0, err
		}
		return &planEntry{plan: plan}, planCost(plan), nil
	})
	if err != nil {
		return nil, err
	}
	return entry.handle(p, key, req.Codec), nil
}

// Block is one cooked run of consecutive frames of a generation, rows
// [Lo, Hi) of generation Gen: one frame-cache entry. A stream that sends
// a run of rows keeps the block it is sending from and asks the cache
// again only when it moves past it. Blocks are SHARED AND IMMUTABLE.
type Block struct {
	Gen, Lo, Hi int
	bytes       []byte
}

// Has reports whether row of generation gen lies in the block; a nil
// Block has none.
func (b *Block) Has(gen, row int) bool {
	return b != nil && gen == b.Gen && row >= b.Lo && row < b.Hi
}

// Frame returns row's wire frame, a view of the block capped at its own
// length, so an append to it reallocates instead of writing over the
// next frame. row must lie in the block.
func (b *Block) Frame(row int) []byte {
	fl := len(b.bytes) / (b.Hi - b.Lo)
	off := (row - b.Lo) * fl
	return b.bytes[off : off+fl : off+fl]
}

// Block returns the cooked frame block holding row of generation gen
// under codec, serving it from the shared frame cache (core.Plan.BlockSpan
// draws the blocks). A row is the generation's cooked index under the
// fixed-rate codec, the stream seq under the fountain, whose repair
// blocks are also keyed by the stream's seed. Source blocks carry no seed
// under either codec, so every seed of a plan shares one.
// Both codecs' blocks are pure functions of their key, so one cook serves
// every connection asking for it. A block is charged its bytes, its plan
// key and frameOverhead.
func (r *Resolved) Block(codec erasure.CodecID, seed uint64, gen, row int) (*Block, error) {
	lo, hi, err := r.Plan.BlockSpan(codec, gen, row)
	if err != nil {
		return nil, err
	}
	if codec != erasure.CodecFountain || lo == 0 {
		seed = 0
	}
	k := framecache.Key{Plan: r.Key, Gen: gen, Row: lo, Codec: uint8(codec), Seed: seed}
	p := r.planner
	// Try the closure-free hit path first; build the cook only on miss.
	if b, ok := p.frames.Get(k); ok {
		return b, nil
	}
	return p.frames.GetOrLoad(k, func() (*Block, int64, error) {
		b, err := r.Plan.CookBlock(codec, seed, gen, lo, hi)
		if err != nil {
			return nil, 0, err
		}
		return &Block{Gen: gen, Lo: lo, Hi: hi, bytes: b}, int64(len(b)+len(k.Plan)) + frameOverhead, nil
	})
}

// Frame returns the cooked wire frame for a global sequence number, a
// view of its block in the shared frame cache. The returned slice is
// shared and immutable; writing through it corrupts every connection
// streaming the same document.
func (r *Resolved) Frame(seq int) ([]byte, error) {
	gen, row, err := r.Plan.Locate(seq)
	if err != nil {
		return nil, err
	}
	b, err := r.Block(erasure.CodecVandermonde, 0, gen, row)
	if err != nil {
		return nil, err
	}
	return b.Frame(row), nil
}

// FountainFrame returns the cooked fountain wire frame for (seed, gen,
// seq), a view of its block in the shared frame cache. The returned
// slice is shared and immutable.
func (r *Resolved) FountainFrame(seed uint64, gen, seq int) ([]byte, error) {
	b, err := r.Block(erasure.CodecFountain, seed, gen, seq)
	if err != nil {
		return nil, err
	}
	return b.Frame(seq), nil
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
		Hits:      s.Hits,
		Misses:    s.Misses,
		Coalesced: s.Coalesced,
		Builds:    s.Cooks,
		BuildTime: s.CookTime,
		Evictions: s.Evictions,
		Entries:   s.Entries,
		Bytes:     s.Bytes,
		GFKernel:  gf256.KernelName(),
	}
}

// String formats the snapshot for logs.
func (s Stats) String() string {
	return fmt.Sprintf("planner{hits %d, misses %d, coalesced %d, builds %d (%v), evictions %d, entries %d, %d bytes, gf %s}",
		s.Hits, s.Misses, s.Coalesced, s.Builds, s.BuildTime.Round(time.Microsecond), s.Evictions, s.Entries, s.Bytes, s.GFKernel)
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

// cacheKey canonicalizes a resolved request behind its document's
// version, in hex. Everything that changes the resulting plan participates; the
// query enters as the FNV-64a hash of its sorted occurrence vector, each
// term written "term=count;", so queries that stem to the same vector
// share a key. The key is built in one stack buffer, which also holds
// each count's digits on their way into the hash: the key string is the
// one allocation of a query-free resolve.
func cacheKey(version uint64, doc string, cfg core.Config, queryVec map[string]int) string {
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
	b := strconv.AppendUint(buf[:0], version, 16)
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

// planCost estimates a plan's resident bytes: its one stream of M·sp
// bytes, per-segment bookkeeping, and the layout of the one codec a
// server usually serves it under (a SegmentMeta and about 24 encoded
// bytes a segment). Cooked parity is not part of a plan's cost; the
// frame cache counts each block it keeps against its own budget.
func planCost(plan *core.Plan) int64 {
	segs := len(plan.Segments()) + len(plan.AccrualSegments())
	return int64(plan.M()*plan.Config().PacketSize) + int64((128+96)*segs) + 512
}
