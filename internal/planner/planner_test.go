package planner

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mobweb/internal/core"
	"mobweb/internal/document"
	"mobweb/internal/erasure"
	"mobweb/internal/search"
	"mobweb/internal/textproc"
)

// synthDoc builds a deterministic document with enough bulk to span
// several raw packets.
func synthDoc(t *testing.T, name string, paragraphs int) *document.Document {
	t.Helper()
	b := document.NewBuilder()
	b.Open(document.LODSection, "1", "Mobile Browsing")
	for i := 0; i < paragraphs; i++ {
		b.Paragraph(fmt.Sprintf("paragraph %d mobile web browsing weakly connected channel %s",
			i, strings.Repeat("payload ", 40)))
	}
	doc, err := b.Build(name, "Synthetic "+name)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// newTestPlanner indexes the named synthetic documents and wraps them in
// a planner.
func newTestPlanner(t *testing.T, opts Options, docs ...string) (*Planner, *search.Engine) {
	t.Helper()
	engine := search.NewEngine(textproc.Options{})
	for _, name := range docs {
		if err := engine.Add(synthDoc(t, name, 12)); err != nil {
			t.Fatal(err)
		}
	}
	p, err := New(engine, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p, engine
}

// freshPlanner wraps an engine that has only ever indexed doc: the
// reference a planner that saw the document re-indexed must agree with.
func freshPlanner(t *testing.T, doc *document.Document) *Planner {
	t.Helper()
	engine := search.NewEngine(textproc.Options{})
	if err := engine.Add(doc); err != nil {
		t.Fatal(err)
	}
	p, err := New(engine, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// clearSeqs enumerates the global sequence numbers inside every
// generation's clear-text prefix — the frames an early-terminating client
// consumes.
func clearSeqs(plan *core.Plan) []int {
	var out []int
	cookedOff := 0
	for _, s := range plan.Layout().Shapes {
		for i := 0; i < s.M; i++ {
			out = append(out, cookedOff+i)
		}
		cookedOff += s.N
	}
	return out
}

var baseReq = Request{Doc: "a.xml", Query: "mobile web browsing", LOD: "paragraph", Notion: "QIC"}

// parityRows reads the erasure probe's process-wide count of encoded
// parity rows, the one place a GF(2^8) encode shows.
func parityRows() int64 {
	return erasure.MetricsProbe().(map[string]int64)["parity_rows"]
}

// frameMarshals reads the core probe's process-wide count of frames
// marshalled, whatever block they were cooked in.
func frameMarshals() int64 {
	return core.MetricsProbe().(map[string]int64)["frame_marshals"]
}

// blockCount is the number of frame blocks a full fixed-rate round of
// plan cooks: one cache entry each.
func blockCount(plan *core.Plan) int {
	n := 0
	for g := 0; g < plan.Generations(); g++ {
		for row := 0; row < plan.Shape(g).N; n++ {
			_, hi, err := plan.BlockSpan(erasure.CodecVandermonde, g, row)
			if err != nil {
				panic(err)
			}
			row = hi
		}
	}
	return n
}

// TestRepeatFetchZeroBuildsZeroEncodes is the acceptance criterion: a
// repeat fetch of the same (doc, query, LOD, notion, γ) performs zero
// core.NewPlan calls; a round that stays inside the clear-text prefixes
// encodes zero parity rows; and a repeated full round through the frame
// cache, the path the server streams from, cooks zero blocks.
func TestRepeatFetchZeroBuildsZeroEncodes(t *testing.T) {
	p, _ := newTestPlanner(t, Options{}, "a.xml")

	// Round 1: resolve and stream only the clear prefix (the paper's
	// early-abort scenario).
	r, err := p.ResolveFrames(baseReq)
	if err != nil {
		t.Fatal(err)
	}
	rows, marshals := parityRows(), frameMarshals()
	for _, seq := range clearSeqs(r.Plan) {
		if _, err := r.Frame(seq); err != nil {
			t.Fatal(err)
		}
	}
	if got := parityRows() - rows; got != 0 {
		t.Fatalf("clear-prefix fetch encoded %d parity rows, want 0", got)
	}
	if got := frameMarshals() - marshals; got != int64(r.Plan.M()) {
		t.Fatalf("clear-prefix fetch marshalled %d frames, want M = %d", got, r.Plan.M())
	}

	// Round 2: the retransmission round — same tuple, zero builds.
	again, err := p.ResolveFrames(baseReq)
	if err != nil {
		t.Fatal(err)
	}
	if again.Plan != r.Plan {
		t.Fatal("repeat resolve returned a different plan instance")
	}
	if st := p.Stats(); st.Builds != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("after repeat resolve: %+v, want 1 build / 1 hit / 1 miss", st)
	}

	// A full round cooks each block once, marshalling each frame and
	// encoding each parity row once...
	plan := r.Plan
	marshals = frameMarshals()
	for seq := 0; seq < plan.N(); seq++ {
		if _, err := again.Frame(seq); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := parityRows()-rows, int64(plan.N()-plan.M()); got != want {
		t.Fatalf("full round encoded %d parity rows, want %d", got, want)
	}
	// The clear-prefix round cooked every source block already.
	if got, want := frameMarshals()-marshals, int64(plan.N()-plan.M()); got != want {
		t.Fatalf("full round marshalled %d frames past the clear-prefix round, want %d", got, want)
	}
	if st := p.FrameStats(); st.Cooks != int64(blockCount(plan)) || st.Entries != blockCount(plan) {
		t.Fatalf("full round: %+v, want %d blocks cooked and cached", st, blockCount(plan))
	}

	// ...and a repeated full round cooks nothing and builds nothing.
	cooks, rows, marshals := p.FrameStats().Cooks, parityRows(), frameMarshals()
	r3, err := p.ResolveFrames(baseReq)
	if err != nil {
		t.Fatal(err)
	}
	for seq := 0; seq < plan.N(); seq++ {
		if _, err := r3.Frame(seq); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.FrameStats().Cooks - cooks; got != 0 {
		t.Fatalf("repeat full round cooked %d blocks, want 0", got)
	}
	if got := frameMarshals() - marshals; got != 0 {
		t.Fatalf("repeat full round marshalled %d frames, want 0", got)
	}
	if got := parityRows() - rows; got != 0 {
		t.Fatalf("repeat full round encoded %d parity rows, want 0", got)
	}
	if st := p.Stats(); st.Builds != 1 {
		t.Fatalf("repeat full round rebuilt the plan: %+v", st)
	}
}

// TestSingleflight fires N concurrent resolutions of one key and demands
// exactly one build.
func TestSingleflight(t *testing.T) {
	p, _ := newTestPlanner(t, Options{}, "a.xml")
	const n = 32
	start := make(chan struct{})
	plans := make([]*core.Plan, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			plans[i], errs[i] = p.Resolve(baseReq)
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if plans[i] != plans[0] {
			t.Fatalf("goroutine %d got a different plan instance", i)
		}
	}
	st := p.Stats()
	if st.Builds != 1 {
		t.Fatalf("%d concurrent resolves ran %d builds, want 1 (stats %+v)", n, st.Builds, st)
	}
	// The counting rule both cache instances share: every resolve is a hit
	// or a miss, and one that joined the flight is a miss and a coalesce.
	if st.Hits+st.Misses != n || st.Misses != 1+st.Coalesced {
		t.Fatalf("%d resolves: %+v, want hits+misses = %d and misses = 1 + coalesced", n, st, n)
	}
}

// TestEvictionOrder verifies least-recently-used ordering under a byte
// budget that fits exactly two plans.
func TestEvictionOrder(t *testing.T) {
	p, _ := newTestPlanner(t, Options{CacheBytes: 1}, "a.xml", "b.xml", "c.xml")
	req := func(doc string) Request {
		r := baseReq
		r.Doc = doc
		return r
	}
	// Size the budget from a real plan: exactly two entries fit.
	probe, err := p.Resolve(req("a.xml"))
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := newTestPlanner(t, Options{CacheBytes: 2*planCost(probe) + planCost(probe)/2}, "a.xml", "b.xml", "c.xml")

	mustResolve := func(doc string) {
		t.Helper()
		if _, err := p2.Resolve(req(doc)); err != nil {
			t.Fatal(err)
		}
	}
	mustResolve("a.xml") // miss, builds 1
	mustResolve("b.xml") // miss, builds 2
	mustResolve("a.xml") // hit — A becomes most recent
	mustResolve("c.xml") // miss, builds 3, evicts LRU = B
	if st := p2.Stats(); st.Builds != 3 || st.Evictions != 1 {
		t.Fatalf("after insert of third plan: %+v, want 3 builds / 1 eviction", st)
	}
	mustResolve("a.xml") // must still be cached: it was recently used
	if st := p2.Stats(); st.Builds != 3 {
		t.Fatalf("recently-used entry was evicted: %+v", st)
	}
	mustResolve("b.xml") // was LRU at eviction time → rebuilt
	if st := p2.Stats(); st.Builds != 4 {
		t.Fatalf("expected LRU entry to have been evicted: %+v", st)
	}
}

// TestCacheDisabled: a negative byte budget builds every time but still
// deduplicates concurrent builds.
func TestCacheDisabled(t *testing.T) {
	p, _ := newTestPlanner(t, Options{CacheBytes: -1}, "a.xml")
	for i := 0; i < 3; i++ {
		if _, err := p.Resolve(baseReq); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if st.Builds != 3 || st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("disabled cache: %+v, want 3 builds and an empty cache", st)
	}
}

// TestMaxEntriesCap keeps its name from the entry cap the byte budget
// replaced: a budget that fits one plan holds one entry and has evicted
// once after two resolutions.
func TestMaxEntriesCap(t *testing.T) {
	probe, _ := newTestPlanner(t, Options{}, "a.xml")
	plan, err := probe.Resolve(baseReq)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := newTestPlanner(t, Options{CacheBytes: planCost(plan) + planCost(plan)/2}, "a.xml", "b.xml")
	reqB := baseReq
	reqB.Doc = "b.xml"
	if _, err := p.Resolve(baseReq); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Resolve(reqB); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Entries != 1 || st.Evictions != 1 {
		t.Fatalf("one-plan budget: %+v, want 1 entry / 1 eviction", st)
	}
}

// TestGammaValidation: NaN, negative and sub-1 gammas fail at resolution
// time with a client-facing message, not a deep core/erasure string.
func TestGammaValidation(t *testing.T) {
	p, _ := newTestPlanner(t, Options{}, "a.xml")
	for _, g := range []float64{math.NaN(), math.Inf(1), -2, 0.5} {
		req := baseReq
		req.Gamma = g
		_, err := p.Resolve(req)
		reqErr, ok := err.(*RequestError)
		if !ok {
			t.Fatalf("gamma %v: error %v (%T), want *RequestError", g, err, err)
		}
		if reqErr.NotFound || !strings.Contains(reqErr.Msg, "gamma") {
			t.Errorf("gamma %v: message %q", g, reqErr.Msg)
		}
	}
	if st := p.Stats(); st.Builds != 0 {
		t.Fatalf("invalid gammas reached the builder: %+v", st)
	}
	req := baseReq
	req.Gamma = 2
	if _, err := p.Resolve(req); err != nil {
		t.Fatalf("gamma 2 rejected: %v", err)
	}
}

// TestUnknownDocument surfaces NotFound for missing documents.
func TestUnknownDocument(t *testing.T) {
	p, _ := newTestPlanner(t, Options{}, "a.xml")
	req := baseReq
	req.Doc = "ghost.xml"
	_, err := p.Resolve(req)
	reqErr, ok := err.(*RequestError)
	if !ok || !reqErr.NotFound {
		t.Fatalf("unknown doc: error %v, want NotFound RequestError", err)
	}
}

// TestBadSpellingsRejected: parameter errors arrive as RequestError.
func TestBadSpellingsRejected(t *testing.T) {
	p, _ := newTestPlanner(t, Options{}, "a.xml")
	for _, mutate := range []func(*Request){
		func(r *Request) { r.LOD = "chapter" },
		func(r *Request) { r.Notion = "ZIC" },
	} {
		req := baseReq
		mutate(&req)
		if _, err := p.Resolve(req); err == nil {
			t.Errorf("request %+v accepted", req)
		} else if _, ok := err.(*RequestError); !ok {
			t.Errorf("request %+v: error %T, want *RequestError", req, err)
		}
	}
}

// TestQueryVectorCanonicalization: queries that produce the same
// occurrence vector share one cache entry regardless of word order.
func TestQueryVectorCanonicalization(t *testing.T) {
	q1, q2 := "mobile web browsing", "browsing web mobile"
	if !reflect.DeepEqual(textproc.QueryVector(q1), textproc.QueryVector(q2)) {
		t.Skipf("queries %q and %q do not share an occurrence vector", q1, q2)
	}
	p, _ := newTestPlanner(t, Options{}, "a.xml")
	r1, r2 := baseReq, baseReq
	r1.Query, r2.Query = q1, q2
	if _, err := p.Resolve(r1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Resolve(r2); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Builds != 1 || st.Hits != 1 {
		t.Fatalf("reordered query missed the cache: %+v", st)
	}
}

// TestCanonicalDefaultsShareEntry: an explicit default (γ=1.5) and the
// implicit one resolve to the same cache entry.
func TestCanonicalDefaultsShareEntry(t *testing.T) {
	p, _ := newTestPlanner(t, Options{}, "a.xml")
	if _, err := p.Resolve(baseReq); err != nil {
		t.Fatal(err)
	}
	req := baseReq
	req.Gamma = core.DefaultGamma
	if _, err := p.Resolve(req); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Builds != 1 || st.Hits != 1 {
		t.Fatalf("explicit default gamma missed the cache: %+v", st)
	}
}

// TestReindexInvalidates: re-adding a document mints a new version, so
// the next resolution builds a plan of the new document instead of
// hitting the plan ranked against the old one.
func TestReindexInvalidates(t *testing.T) {
	p, engine := newTestPlanner(t, Options{}, "a.xml")
	if _, err := p.Resolve(baseReq); err != nil {
		t.Fatal(err)
	}
	doc := synthDoc(t, "a.xml", 12)
	if err := engine.Add(doc); err != nil {
		t.Fatal(err)
	}
	plan, err := p.Resolve(baseReq)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Doc() != doc {
		t.Fatal("resolution after a re-index served the old document's plan")
	}
	if st := p.Stats(); st.Builds != 2 {
		t.Fatalf("after re-index: %+v, want 2 builds", st)
	}
}

// TestCachedPlanFrameStress hammers one cached plan's Frame from many
// goroutines across the full cooked range, so the race detector sees one
// plan shared by every connection, and every frame must match the frames
// of an independently built plan.
func TestCachedPlanFrameStress(t *testing.T) {
	p, _ := newTestPlanner(t, Options{}, "a.xml")
	plan, err := p.Resolve(baseReq)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: a second, independent planner (its own build), fully
	// materialized up front. Plan construction is deterministic.
	pRef, _ := newTestPlanner(t, Options{}, "a.xml")
	ref, err := pRef.Resolve(baseReq)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, ref.N())
	for seq := 0; seq < ref.N(); seq++ {
		if want[seq], err = ref.Frame(seq); err != nil {
			t.Fatal(err)
		}
	}

	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Stagger start offsets so goroutines collide on different
			// generations' first-parity access.
			for i := 0; i < plan.N(); i++ {
				seq := (i + w*7) % plan.N()
				frame, err := plan.Frame(seq)
				if err != nil {
					errs <- fmt.Errorf("worker %d seq %d: %w", w, seq, err)
					return
				}
				if !bytes.Equal(frame, want[seq]) {
					errs <- fmt.Errorf("worker %d seq %d: frame mismatch", w, seq)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestBothCodecsOneDoc is the cross-codec collision regression: a
// Vandermonde frame and fountain frames (under two seeds) of the SAME
// plan share numeric (gen, row) coordinates, so only the codec id and
// seed in the cache key keep them apart. Each must cook and cache
// independently, and repeat lookups must hit their own entry. A source
// frame carries no seed, so the two streams share one source block and
// differ only past the clear prefix.
func TestBothCodecsOneDoc(t *testing.T) {
	p, _ := newTestPlanner(t, Options{}, "a.xml")
	r, err := p.ResolveFrames(baseReq)
	if err != nil {
		t.Fatal(err)
	}

	// The served seed is the plan's digest; a salted one is a second
	// stream of the same plan, as the benchmark's replay can still ask.
	seedA := r.Plan.Digest()
	seedB := r.FountainSeed(2)
	if seedA == seedB {
		t.Fatal("a salted seed equals the digest")
	}
	if r.Plan.Layout().Seed != seedA || r.FountainSeed(0) != seedA {
		t.Fatalf("layout seed %#x, unsalted seed %#x, want the digest %#x", r.Plan.Layout().Seed, r.FountainSeed(0), seedA)
	}
	// The seed must survive a re-resolve (cache hit path) unchanged: it
	// is a function of the plan's content, not of the handle.
	r2, err := p.ResolveFrames(baseReq)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Plan.Digest() != seedA {
		t.Fatal("re-resolved handle has a different digest")
	}

	// Global seq 0 is generation 0, row 0 — numerically identical
	// coordinates to fountain (gen 0, seq 0) under both seeds.
	vand, err := r.Frame(0)
	if err != nil {
		t.Fatal(err)
	}
	ftnA, err := r.FountainFrame(seedA, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ftnB, err := r.FountainFrame(seedB, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(vand, ftnA) || bytes.Equal(vand, ftnB) {
		t.Fatal("fountain frame identical to Vandermonde frame at the same coordinates")
	}
	if !bytes.Equal(ftnA, ftnB) {
		t.Fatal("source frames under different seeds differ: the seed is not on the air")
	}

	// Row 0 lies in the source block, one per codec: both seeds share it.
	cooked := p.FrameStats().Cooks
	if cooked != 2 {
		t.Fatalf("cooked %d blocks, want 2 (one source block per codec)", cooked)
	}
	// Repeat fetches of all three must be pure cache hits.
	for i := 0; i < 2; i++ {
		if f, err := r.Frame(0); err != nil || !bytes.Equal(f, vand) {
			t.Fatalf("repeat Vandermonde frame: %v", err)
		}
		if f, err := r.FountainFrame(seedA, 0, 0); err != nil || !bytes.Equal(f, ftnA) {
			t.Fatalf("repeat fountain frame (seed A): %v", err)
		}
		if f, err := r.FountainFrame(seedB, 0, 0); err != nil || !bytes.Equal(f, ftnB) {
			t.Fatalf("repeat fountain frame (seed B): %v", err)
		}
	}
	if st := p.FrameStats(); st.Cooks != cooked {
		t.Fatalf("repeat lookups cooked %d extra blocks", st.Cooks-cooked)
	}
	if st := p.FrameStats(); st.Entries != 2 {
		t.Fatalf("cache holds %d entries, want 2 distinct", st.Entries)
	}
	// A repair row is a seeded combination: the two streams part there,
	// each seed in a block of its own.
	m := r.Layout.Shapes[0].M
	repA, err := r.FountainFrame(seedA, 0, m)
	if err != nil {
		t.Fatal(err)
	}
	repB, err := r.FountainFrame(seedB, 0, m)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(repA, repB) {
		t.Fatal("repair frames under different seeds are identical")
	}
	if st := p.FrameStats(); st.Cooks != cooked+2 || st.Entries != 4 {
		t.Fatalf("repair rows: %d cooks and %d entries, want %d and 4", st.Cooks, st.Entries, cooked+2)
	}
}

// TestReindexRetiresWholeVersion: every round re-indexes the document and
// then resolves it under a never-repeated query, so no plan key is ever
// asked for twice. Each resolution must serve the document just added,
// and the retired versions' plans and frames must age out of caches a
// few entries large.
func TestReindexRetiresWholeVersion(t *testing.T) {
	probe, _ := newTestPlanner(t, Options{}, "a.xml")
	if _, err := probe.Resolve(baseReq); err != nil {
		t.Fatal(err)
	}
	planBudget := 3*probe.Stats().Bytes + probe.Stats().Bytes/2
	const frameBudget = 4 << 10
	p, engine := newTestPlanner(t, Options{CacheBytes: planBudget, FrameCacheBytes: frameBudget}, "a.xml")
	const rounds = 200
	for i := 0; i < rounds; i++ {
		doc := synthDoc(t, "a.xml", 10+i%3)
		if err := engine.Add(doc); err != nil {
			t.Fatal(err)
		}
		req := baseReq
		req.Query = fmt.Sprintf("mobile zq%c%c", 'a'+i/26, 'a'+i%26)
		r, err := p.ResolveFrames(req)
		if err != nil {
			t.Fatal(err)
		}
		if r.Plan.Doc() != doc {
			t.Fatalf("round %d: resolution served a retired version's plan", i)
		}
		frame, err := r.Frame(r.Plan.N() - 1)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := r.Plan.Frame(r.Plan.N() - 1); !bytes.Equal(frame, want) {
			t.Fatalf("round %d: the frame cache served another plan's frame", i)
		}
	}
	if st := p.Stats(); st.Builds != rounds || st.Bytes > planBudget || st.Evictions == 0 {
		t.Errorf("plan cache: %+v, want %d builds within %d bytes", st, rounds, planBudget)
	}
	if st := p.FrameStats(); st.Bytes > frameBudget || st.Evictions == 0 {
		t.Errorf("frame cache: %+v, want at most %d bytes", st, frameBudget)
	}
}

// TestReindexDuringBuildNotRetained is the -race stress for the window
// between reading a document's version and caching what was built from
// it: goroutines resolve and cook while another keeps re-adding the
// document. Once it settles, a resolution must return a plan of the
// engine's current document, and every frame it serves must equal the
// frame of a planner that only ever saw that document: what a racing
// build cached sits under a retired version, where no lookup goes.
func TestReindexDuringBuildNotRetained(t *testing.T) {
	p, engine := newTestPlanner(t, Options{}, "a.xml")
	queries := []string{"mobile web browsing", "weakly connected channel", ""}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				req := baseReq
				req.Query = queries[i%len(queries)]
				r, err := p.ResolveFrames(req)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := r.Frame(i % r.Plan.N()); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	var last *document.Document
	for i := 0; i < 40; i++ {
		last = synthDoc(t, "a.xml", 10+i%3)
		if err := engine.Add(last); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	ref := freshPlanner(t, last)
	for _, q := range queries {
		req := baseReq
		req.Query = q
		r, err := p.ResolveFrames(req)
		if err != nil {
			t.Fatal(err)
		}
		if r.Plan.Doc() != last {
			t.Fatalf("query %q: plan of a superseded document after the re-index settled", q)
		}
		want, err := ref.ResolveFrames(req)
		if err != nil {
			t.Fatal(err)
		}
		for seq := 0; seq < want.Plan.N(); seq++ {
			got, err := r.Frame(seq)
			if err != nil {
				t.Fatal(err)
			}
			if w, _ := want.Frame(seq); !bytes.Equal(got, w) {
				t.Fatalf("query %q seq %d: frame of a superseded document after the re-index settled", q, seq)
			}
		}
	}
}
