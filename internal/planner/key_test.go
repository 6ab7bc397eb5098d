package planner

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"testing"

	"mobweb/internal/content"
	"mobweb/internal/core"
	"mobweb/internal/document"
	"mobweb/internal/erasure"
	"mobweb/internal/textproc"
)

// cacheKeyOracle is the plan key as it was first written, with
// hash/fnv and fmt: cacheKey must build the same bytes without them.
func cacheKeyOracle(version, doc string, cfg core.Config, queryVec map[string]int) string {
	h := fnv.New64a()
	terms := make([]string, 0, len(queryVec))
	for t := range queryVec {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	for _, t := range terms {
		fmt.Fprintf(h, "%s=%d;", t, queryVec[t])
	}
	return version + "\x00" + doc + "\x00" +
		strconv.Itoa(int(cfg.LOD)) + "\x00" +
		strconv.Itoa(int(cfg.Notion)) + "\x00" +
		strconv.FormatUint(math.Float64bits(cfg.Gamma), 16) + "\x00" +
		strconv.Itoa(cfg.PacketSize) + "\x00" +
		strconv.Itoa(cfg.MaxGeneration) + "\x00" +
		strconv.FormatUint(h.Sum64(), 16)
}

// TestCacheKeyMatchesOracle: the key is byte-identical to the oracle's
// over configs and queries, a term longer than the key's stack buffer and
// counts of every sign included.
func TestCacheKeyMatchesOracle(t *testing.T) {
	configs := []core.Config{
		{},
		{LOD: document.LODParagraph, Notion: content.NotionQIC, Gamma: 1.5, PacketSize: 256, MaxGeneration: 64},
		{LOD: document.LODSection, Notion: content.NotionMQIC, Gamma: 1.0 / 3, PacketSize: 1 << 20, MaxGeneration: -1},
		{Gamma: math.Inf(1), PacketSize: math.MaxInt, MaxGeneration: math.MinInt},
	}
	long := string(bytes.Repeat([]byte("stem"), 100))
	queries := []map[string]int{
		nil,
		{},
		textproc.QueryVector("mobile web browsing"),
		textproc.QueryVector("weakly connected weakly connected mobile"),
		{"a": 1, "b": 0, "c": -12, "ü": math.MaxInt, "": 3},
		{long: 2, "short": 1},
	}
	for _, version := range []string{"1", "ff0a"} {
		for _, doc := range []string{"draft.xml", "", "a\x00b.html"} {
			for ci, cfg := range configs {
				for qi, qv := range queries {
					got, want := cacheKey(version, doc, cfg, qv), cacheKeyOracle(version, doc, cfg, qv)
					if got != want {
						t.Errorf("version %q doc %q config %d query %d: key %q, oracle %q", version, doc, ci, qi, got, want)
					}
				}
			}
		}
	}
}

// TestCacheKeyAllocations: a query-free key costs only its string.
func TestCacheKeyAllocations(t *testing.T) {
	cfg := core.Config{LOD: document.LODParagraph, Gamma: 1.5, PacketSize: 256}
	if n := testing.AllocsPerRun(100, func() { cacheKey("1", "draft.xml", cfg, nil) }); n > 1 {
		t.Errorf("query-free cacheKey allocates %v times, want 1", n)
	}
}

// TestLayoutOncePerPlanAndCodec: every resolution of a cached plan under
// one codec shares one Resolved, whose layout is the plan's for that
// codec and whose bytes are that layout's encoding; the other codec gets
// its own.
func TestLayoutOncePerPlanAndCodec(t *testing.T) {
	p, _ := newTestPlanner(t, Options{}, "a.xml")
	byCodec := map[erasure.CodecID]*Resolved{}
	for _, codec := range []erasure.CodecID{erasure.CodecVandermonde, erasure.CodecFountain} {
		first, err := p.ResolveFrames(Request{Doc: "a.xml", Codec: codec})
		if err != nil {
			t.Fatal(err)
		}
		again, err := p.ResolveFrames(Request{Doc: "a.xml", Codec: codec})
		if err != nil {
			t.Fatal(err)
		}
		if first != again {
			t.Errorf("codec %v: two resolutions of one cached plan built two handles", codec)
		}
		want := first.Plan.Layout()
		if codec == erasure.CodecFountain {
			want = first.Plan.FountainLayout(first.Plan.Digest())
		}
		if !reflect.DeepEqual(first.Layout, want) {
			t.Errorf("codec %v: handle carries %+v, plan's layout is %+v", codec, first.Layout, want)
		}
		bin, _ := want.MarshalBinary()
		if !bytes.Equal(first.LayoutBinary, bin) {
			t.Errorf("codec %v: LayoutBinary is not the layout's encoding", codec)
		}
		byCodec[codec] = first
	}
	if v, f := byCodec[erasure.CodecVandermonde], byCodec[erasure.CodecFountain]; v.Plan != f.Plan || v == f {
		t.Error("the two codecs must share the plan and hold a handle each")
	}
	if _, err := p.ResolveFrames(Request{Doc: "a.xml", Codec: 7}); err == nil {
		t.Error("codec 7 resolved")
	}
	if st := p.Stats(); st.Builds != 1 {
		t.Errorf("%d plan builds, want 1", st.Builds)
	}
}

// TestLayoutHandleConcurrent: resolutions racing on a fresh plan under
// both codecs build one handle per codec, and every caller gets it.
func TestLayoutHandleConcurrent(t *testing.T) {
	p, _ := newTestPlanner(t, Options{}, "a.xml")
	const workers = 16
	got := make([]*Resolved, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			codec := erasure.CodecVandermonde
			if w%2 == 1 {
				codec = erasure.CodecFountain
			}
			r, err := p.ResolveFrames(Request{Doc: "a.xml", Codec: codec})
			if err != nil {
				t.Error(err)
				return
			}
			got[w] = r
		}(w)
	}
	wg.Wait()
	for w := 2; w < workers; w++ {
		if got[w] != got[w%2] {
			t.Fatalf("worker %d got another handle than worker %d", w, w%2)
		}
	}
	if got[0].Layout.Codec != erasure.CodecVandermonde || got[1].Layout.Codec != erasure.CodecFountain || len(got[1].LayoutBinary) == 0 {
		t.Errorf("handles carry codecs %v and %v", got[0].Layout.Codec, got[1].Layout.Codec)
	}
}
