package planner

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"mobweb/internal/search"
	"mobweb/internal/textproc"
)

// TestResolveFramesByteIdentity is the correctness floor: every frame
// served through the cache — retaining (the default) or retaining nothing
// (negative budget) — must be byte-identical to the plan's own Plan.Frame
// output, across clear-prefix rows, parity rows, block and generation
// boundaries, and capped at its own length.
func TestResolveFramesByteIdentity(t *testing.T) {
	cached, _ := newTestPlanner(t, Options{}, "a.xml")
	plain, _ := newTestPlanner(t, Options{FrameCacheBytes: -1}, "a.xml")

	res, err := cached.ResolveFrames(baseReq)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := plain.ResolveFrames(baseReq)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.N() != ref.Plan.N() {
		t.Fatalf("plans disagree: N %d vs %d", res.Plan.N(), ref.Plan.N())
	}
	for seq := 0; seq < res.Plan.N(); seq++ {
		want, err := ref.Plan.Frame(seq)
		if err != nil {
			t.Fatalf("plan seq %d: %v", seq, err)
		}
		for name, r := range map[string]*Resolved{"cached": res, "uncached": ref} {
			for pass := 0; pass < 2; pass++ {
				got, err := r.Frame(seq)
				if err != nil {
					t.Fatalf("%s seq %d: %v", name, seq, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("seq %d: %s frame differs from Plan.Frame", seq, name)
				}
				if cap(got) != len(got) {
					t.Fatalf("seq %d: %s frame has cap %d past its %d bytes", seq, name, cap(got), len(got))
				}
			}
		}
	}
	// Each block cooks and is cached once; every other lookup hits it.
	n, blocks := int64(res.Plan.N()), int64(blockCount(res.Plan))
	if s := cached.FrameStats(); s.Cooks != blocks || s.Entries != int(blocks) || s.Hits != 2*n-blocks {
		t.Fatalf("default budget: %+v, want %d cooks and entries, %d hits", s, blocks, 2*n-blocks)
	}
	// A negative budget keeps its meaning through the one path: every
	// call cooks its block, nothing is retained.
	if s := plain.FrameStats(); s.Cooks != 2*n || s.Entries != 0 || s.Hits != 0 || s.Bytes != 0 {
		t.Fatalf("negative budget: %+v, want %d cooks and nothing retained", s, 2*n)
	}
}

// TestResolveFramesSharesAcrossHandles pins the CDN-edge property: two
// independent resolutions of one request serve the very same frame
// slice, and repeat access is a hit with no further marshal.
func TestResolveFramesSharesAcrossHandles(t *testing.T) {
	p, _ := newTestPlanner(t, Options{}, "a.xml")
	r1, err := p.ResolveFrames(baseReq)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p.ResolveFrames(baseReq)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Key != r2.Key {
		t.Fatalf("canonical keys differ: %q vs %q", r1.Key, r2.Key)
	}
	f1, err := r1.Frame(0)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := r2.Frame(0)
	if err != nil {
		t.Fatal(err)
	}
	if &f1[0] != &f2[0] {
		t.Fatal("handles do not share the cached frame slice")
	}
	s := p.FrameStats()
	if s.Cooks != 1 || s.Hits == 0 {
		t.Fatalf("stats = %+v, want one cook then hits", s)
	}
}

// TestResolveFramesGammaKeysSeparately drives the γ-adaptation edge: a
// mid-session γ change must address different cache rows, never reuse
// frames cooked under the old layout.
func TestResolveFramesGammaKeysSeparately(t *testing.T) {
	p, _ := newTestPlanner(t, Options{}, "a.xml")
	lo, err := p.ResolveFrames(baseReq)
	if err != nil {
		t.Fatal(err)
	}
	hiReq := baseReq
	hiReq.Gamma = 2.0
	hi, err := p.ResolveFrames(hiReq)
	if err != nil {
		t.Fatal(err)
	}
	if lo.Key == hi.Key {
		t.Fatal("γ change did not change the frame key")
	}
	// Warm both, then verify each serves its own layout's frames.
	for seq := 0; seq < lo.Plan.N(); seq++ {
		if _, err := lo.Frame(seq); err != nil {
			t.Fatal(err)
		}
	}
	for seq := 0; seq < hi.Plan.N(); seq++ {
		frame, err := hi.Frame(seq)
		if err != nil {
			t.Fatal(err)
		}
		want, err := hi.Plan.Frame(seq)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(frame, want) {
			t.Fatalf("γ=2 seq %d: cache served a frame from another layout", seq)
		}
	}
}

// TestReindexInvalidatesFrames rebuilds a document and requires the old
// frames to be unreachable: after the re-index every frame served must
// equal the frame of a planner that only ever saw the new content.
func TestReindexInvalidatesFrames(t *testing.T) {
	p, engine := newTestPlanner(t, Options{}, "a.xml")
	r1, err := p.ResolveFrames(baseReq)
	if err != nil {
		t.Fatal(err)
	}
	for seq := 0; seq < r1.Plan.N(); seq++ {
		if _, err := r1.Frame(seq); err != nil {
			t.Fatal(err)
		}
	}

	// Re-index with different content (more paragraphs → different body).
	doc := synthDoc(t, "a.xml", 13)
	if err := engine.Add(doc); err != nil {
		t.Fatal(err)
	}
	r2, err := p.ResolveFrames(baseReq)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Key == r1.Key || r2.Plan.BodySize() == r1.Plan.BodySize() {
		t.Fatal("re-index did not change the frame key and the body")
	}
	want, err := freshPlanner(t, doc).ResolveFrames(baseReq)
	if err != nil {
		t.Fatal(err)
	}
	for seq := 0; seq < want.Plan.N(); seq++ {
		got, err := r2.Frame(seq)
		if err != nil {
			t.Fatal(err)
		}
		if w, _ := want.Frame(seq); !bytes.Equal(got, w) {
			t.Fatalf("seq %d: post-reindex frame does not match the new document", seq)
		}
	}
}

// TestPlanEvictionKeepsFrameBytesValid pins the eviction-race contract:
// a frame-cache hit taken while (or after) the plan cache evicts the
// plan still serves correct bytes, because a rebuilt plan of the same
// document version cooks identical frames.
func TestPlanEvictionKeepsFrameBytesValid(t *testing.T) {
	// A plan budget too small to hold two plans forces eviction on every
	// alternation; the frame cache keeps its own (default) budget.
	p, _ := newTestPlanner(t, Options{CacheBytes: 1}, "a.xml", "b.xml")
	reqA := baseReq
	reqB := baseReq
	reqB.Doc = "b.xml"

	rA, err := p.ResolveFrames(reqA)
	if err != nil {
		t.Fatal(err)
	}
	warm := make([][]byte, rA.Plan.N())
	for seq := range warm {
		if warm[seq], err = rA.Frame(seq); err != nil {
			t.Fatal(err)
		}
	}
	// Push A's plan out (budget 1 byte caches nothing, but exercise the
	// path anyway), then resolve A again: same document version, so the
	// frame key matches and the warmed frames hit.
	if _, err := p.ResolveFrames(reqB); err != nil {
		t.Fatal(err)
	}
	rA2, err := p.ResolveFrames(reqA)
	if err != nil {
		t.Fatal(err)
	}
	if rA2.Key != rA.Key {
		t.Fatalf("frame key changed across plan eviction: %q vs %q", rA2.Key, rA.Key)
	}
	before := p.FrameStats()
	for seq := 0; seq < rA2.Plan.N(); seq++ {
		frame, err := rA2.Frame(seq)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(frame, warm[seq]) {
			t.Fatalf("seq %d: rebuilt plan serves different bytes", seq)
		}
	}
	after := p.FrameStats()
	if after.Hits-before.Hits != int64(rA2.Plan.N()) {
		t.Fatalf("expected all %d frames to hit after eviction, stats %+v → %+v", rA2.Plan.N(), before, after)
	}
}

// TestResolveFramesConcurrent exercises the full stack under -race:
// many goroutines streaming one document must agree byte-for-byte and
// trigger at most one cook per block.
func TestResolveFramesConcurrent(t *testing.T) {
	p, _ := newTestPlanner(t, Options{}, "a.xml")
	res, err := p.ResolveFrames(baseReq)
	if err != nil {
		t.Fatal(err)
	}
	n := res.Plan.N()
	const workers = 8
	frames := make([][][]byte, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r, err := p.ResolveFrames(baseReq)
			if err != nil {
				t.Error(err)
				return
			}
			mine := make([][]byte, n)
			for seq := 0; seq < n; seq++ {
				mine[seq], err = r.Frame(seq)
				if err != nil {
					t.Error(err)
					return
				}
			}
			frames[w] = mine
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for seq := 0; seq < n; seq++ {
			if !bytes.Equal(frames[w][seq], frames[0][seq]) {
				t.Fatalf("worker %d seq %d: frame bytes diverge", w, seq)
			}
		}
	}
	if s, blocks := p.FrameStats(), blockCount(res.Plan); s.Cooks > int64(blocks) {
		t.Fatalf("cooked %d times for %d blocks; dedup failed: %+v", s.Cooks, blocks, s)
	}
}

// TestColdRoundAllocatesPerBlock: a cold resolve and a full round through
// the frame cache allocate in proportion to the blocks cooked, not to the
// frames served. Past what the resolve alone costs, a round of N frames
// in B blocks may allocate at most 8 times a block — the block, its cache
// entry and the cook's bookkeeping — where a cook per frame cost 5 to 6
// allocations a frame.
func TestColdRoundAllocatesPerBlock(t *testing.T) {
	engine := search.NewEngine(textproc.Options{})
	if err := engine.Add(synthDoc(t, "big.xml", 80)); err != nil {
		t.Fatal(err)
	}
	p, err := New(engine, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Every run resolves a query no run asked before: a plan build and a
	// cold frame cache for it.
	const runs = 20
	reqs := make([]Request, 2*(runs+1))
	for i := range reqs {
		reqs[i] = baseReq
		reqs[i].Doc, reqs[i].Query = "big.xml", fmt.Sprintf("mobile zq%03d", i)
	}
	next := 0
	resolve := func() *Resolved {
		r, err := p.ResolveFrames(reqs[next])
		if err != nil {
			t.Fatal(err)
		}
		next++
		return r
	}
	alone := testing.AllocsPerRun(runs, func() { resolve() })
	frames, blocks := 0, 0
	withRound := testing.AllocsPerRun(runs, func() {
		r := resolve()
		for seq := 0; seq < r.Plan.N(); seq++ {
			if _, err := r.Frame(seq); err != nil {
				t.Fatal(err)
			}
		}
		frames, blocks = r.Plan.N(), blockCount(r.Plan)
	})
	round := withRound - alone
	t.Logf("cold resolve %.1f allocations; a round of %d frames in %d blocks %.1f more", alone, frames, blocks, round)
	if 8*blocks >= frames {
		t.Fatalf("%d frames in %d blocks: too few frames a block to tell the two apart", frames, blocks)
	}
	if round > float64(8*blocks) {
		t.Errorf("a round of %d frames in %d blocks allocates %.1f times past its resolve, want at most %d", frames, blocks, round, 8*blocks)
	}
}
