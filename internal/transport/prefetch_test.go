package transport

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mobweb/internal/channel"
	"mobweb/internal/content"
	"mobweb/internal/core"
	"mobweb/internal/corpus"
	"mobweb/internal/document"
	"mobweb/internal/erasure"
	"mobweb/internal/planner"
	"mobweb/internal/search"
	"mobweb/internal/store"
	"mobweb/internal/textproc"
)

func TestPrefetchThenFetch(t *testing.T) {
	client := startServer(t, ServerOptions{})
	opts := FetchOptions{
		Doc:    corpus.DraftName,
		Query:  "mobile web",
		LOD:    document.LODParagraph,
		Notion: content.NotionQIC,
	}
	got, err := client.Prefetch(opts, 15)
	if err != nil {
		t.Fatal(err)
	}
	if got.Intact != 15 || got.Received != 15 {
		t.Errorf("prefetched %d intact of %d received on a clean channel, want 15/15", got.Intact, got.Received)
	}
	opts.Caching = true
	res, err := client.Fetch(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.StoredPackets != 15 {
		t.Errorf("fetch started from %d stored packets, want 15", res.StoredPackets)
	}
	if res.Body == nil {
		t.Fatal("fetch incomplete")
	}
	// The prefetched packets must not be re-sent: total received over the
	// wire during fetch is N - 15.
	if res.PacketsReceived >= 45 {
		t.Errorf("fetch received %d packets; selective continuation failed", res.PacketsReceived)
	}
	// The first caching fetch left the whole document in the store: a
	// second one is served from it with nothing on the wire.
	res2, err := client.Fetch(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Rounds != 0 || res2.PacketsReceived != 0 {
		t.Errorf("second fetch used the wire: %d rounds, %d packets", res2.Rounds, res2.PacketsReceived)
	}
	if !bytes.Equal(res2.Body, res.Body) {
		t.Error("second fetch's body differs from the first")
	}
}

func TestPrefetchTopUp(t *testing.T) {
	client := startServer(t, ServerOptions{})
	opts := FetchOptions{Doc: corpus.DraftName}
	if _, err := client.Prefetch(opts, 10); err != nil {
		t.Fatal(err)
	}
	got, err := client.Prefetch(opts, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got.Intact != 20 {
		t.Errorf("topped-up prefetch holds %d packets, want 20", got.Intact)
	}
	if got.Received != 10 {
		t.Errorf("top-up window received %d frames, want its own budget of 10", got.Received)
	}
}

func TestPrefetchShapeMismatchIgnored(t *testing.T) {
	client := startServer(t, ServerOptions{})
	if _, err := client.Prefetch(FetchOptions{Doc: corpus.DraftName, LOD: document.LODParagraph}, 10); err != nil {
		t.Fatal(err)
	}
	// Fetch with a different LOD: the stored packets must not be used.
	res, err := client.Fetch(FetchOptions{Doc: corpus.DraftName, LOD: document.LODSection})
	if err != nil {
		t.Fatal(err)
	}
	if res.StoredPackets != 0 {
		t.Errorf("shape-mismatched prefetch reused (%d packets)", res.StoredPackets)
	}
	if res.Body == nil {
		t.Fatal("fetch incomplete")
	}
}

// TestPrefetchVisibleThroughSharedStore is the foreground/background
// pattern of a browsing client: one connection prefetches while another
// fetches, both over one store. What the prefetch stored is what the
// foreground fetch starts from, and the two may run at once.
func TestPrefetchVisibleThroughSharedStore(t *testing.T) {
	addr := startServerAddr(t, ServerOptions{})
	st, err := store.Open("", store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	dial := func() *Client {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		c.Timeout = 10 * time.Second
		c.Store = st
		t.Cleanup(func() { c.Close() })
		return c
	}
	bg, fg := dial(), dial()
	opts := FetchOptions{Doc: corpus.DraftName, Caching: true}

	var wg sync.WaitGroup
	var pre PrefetchResult
	var preErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		pre, preErr = bg.Prefetch(opts, 15)
	}()
	other, err := fg.Fetch(FetchOptions{Doc: "mobile-survey.html", Caching: true})
	wg.Wait()
	if err != nil || other.Body == nil {
		t.Fatalf("concurrent foreground fetch: %v", err)
	}
	if preErr != nil {
		t.Fatal(preErr)
	}
	if pre.Intact != 15 || fg.Held(opts) != 15 {
		t.Fatalf("prefetch stored %d, foreground sees %d held, want 15", pre.Intact, fg.Held(opts))
	}
	res, err := fg.Fetch(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.StoredPackets != 15 {
		t.Errorf("foreground fetch started from %d stored packets, want 15", res.StoredPackets)
	}
	if res.RefetchedPackets != 0 {
		t.Errorf("foreground fetch re-received %d prefetched packets", res.RefetchedPackets)
	}
	doc, err := corpus.Load(corpus.DraftName)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Body, doc.Body()) {
		t.Fatal("body differs from the source document")
	}
}

// TestPrefetchManyDocumentsStaysInBudget: a client that prefetches a
// thousand distinct documents holds them in its store and nowhere else,
// so its retained heap is bounded by the store's byte budget rather than
// growing with every document it ever speculated on.
func TestPrefetchManyDocumentsStaysInBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("prefetches a thousand documents")
	}
	const docs = 1000
	engine := search.NewEngine(textproc.Options{})
	for i := 0; i < docs; i++ {
		b := document.NewBuilder()
		b.Open(document.LODSection, "1", fmt.Sprintf("Section %d", i))
		for p := 0; p < 6; p++ {
			b.Paragraph(fmt.Sprintf("paragraph %d of synthetic document %d: %s", p, i,
				strings.Repeat(fmt.Sprintf("weak link %d mobile browsing %d ", i, p), 8)))
		}
		b.Close()
		d, err := b.Build(fmt.Sprintf("doc-%04d.xml", i), fmt.Sprintf("Doc %d", i))
		if err != nil {
			t.Fatal(err)
		}
		if err := engine.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	// No server-side caches: the heap measured is the client's.
	pl, err := planner.New(engine, planner.Options{CacheBytes: -1, FrameCacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	addr := serveEngine(t, engine, ServerOptions{Planner: pl})
	sopts := store.Options{MaxBytes: 256 << 10, SegmentBytes: 32 << 10}
	for _, tier := range []struct{ name, dir string }{{"memory", ""}, {"disk", t.TempDir()}} {
		t.Run(tier.name, func(t *testing.T) {
			st, err := store.Open(tier.dir, sopts)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			client, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			client.Timeout = 10 * time.Second
			client.Store = st
			prefetch := func(i int) {
				if _, err := client.Prefetch(FetchOptions{Doc: fmt.Sprintf("doc-%04d.xml", i)}, 8); err != nil {
					t.Fatal(err)
				}
			}
			prefetch(0)
			before := liveHeap()
			for i := 1; i < docs; i++ {
				prefetch(i)
			}
			grew := liveHeap() - before
			t.Logf("retained heap grew %d KiB over %d documents", grew>>10, docs)
			if limit := sopts.MaxBytes + sopts.SegmentBytes + 2<<20; grew > limit {
				t.Fatalf("retained heap grew %d KiB over %d documents, limit %d KiB (store budget %d KiB)",
					grew>>10, docs, limit>>10, sopts.MaxBytes>>10)
			}
			if s := st.Stats(); s.Bytes > sopts.MaxBytes+sopts.SegmentBytes {
				t.Fatalf("store holds %d bytes, budget %d", s.Bytes, sopts.MaxBytes)
			}
		})
	}
}

// liveHeap returns the bytes of live heap objects after a full collection.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

func TestPrefetchValidation(t *testing.T) {
	client := startServer(t, ServerOptions{})
	if _, err := client.Prefetch(FetchOptions{}, 5); err == nil {
		t.Error("empty doc accepted")
	}
	if _, err := client.Prefetch(FetchOptions{Doc: "x"}, 0); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := client.Prefetch(FetchOptions{Doc: "missing.xml"}, 5); err == nil {
		t.Error("unknown document accepted")
	}
}

func TestPrefetchOverLossyChannelStillHelps(t *testing.T) {
	model, err := channel.NewBernoulli(0.3, 21)
	if err != nil {
		t.Fatal(err)
	}
	client := startServer(t, ServerOptions{InjectorFactory: oneChannel(NewModelInjector(model))})
	opts := FetchOptions{Doc: corpus.DraftName, Caching: true, MaxRounds: 30}
	got, err := client.Prefetch(opts, 20)
	if err != nil {
		t.Fatal(err)
	}
	// The budget is charged in transmissions: corrupted frames burn it
	// without contributing intact packets.
	if got.Received != 20 {
		t.Errorf("lossy prefetch received %d frames, want the full budget of 20", got.Received)
	}
	if got.Intact == 0 {
		t.Fatal("lossy prefetch delivered nothing")
	}
	if got.Intact > got.Received {
		t.Errorf("intact %d exceeds received %d", got.Intact, got.Received)
	}
	intact := got.Intact
	res, err := client.Fetch(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.StoredPackets != intact {
		t.Errorf("fetch started from %d stored packets, want %d", res.StoredPackets, intact)
	}
	if res.Body == nil {
		t.Fatal("fetch incomplete")
	}
}

func TestPrefetchWholeDocumentShortCircuits(t *testing.T) {
	// A budget covering the whole stream stores a fully reconstructible
	// document; the subsequent fetch needs no network at all.
	client := startServer(t, ServerOptions{})
	opts := FetchOptions{Doc: "mobile-survey.html", Caching: true}
	if _, err := client.Prefetch(opts, 10_000); err != nil {
		t.Fatal(err)
	}
	res, err := client.Fetch(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Body == nil {
		t.Fatal("fetch incomplete")
	}
	if res.PacketsReceived != 0 {
		t.Errorf("fully-prefetched fetch still received %d packets", res.PacketsReceived)
	}
}

// TestFountainPrefetchSendsStopgen pins the one wire change of sharing a
// round between fetch and prefetch: a prefetch on a rateless stream now
// closes the loop per generation, instead of letting the transmitter
// spend the idle window's budget on a generation already decoded. The
// scripted server streams generation 0 only, until the client says
// something; the first thing it says must be that generation's stopgen.
func TestFountainPrefetchSendsStopgen(t *testing.T) {
	srv, err := NewServer(corpusEngine(t), ServerOptions{Defaults: core.Config{MaxGeneration: 8}})
	if err != nil {
		t.Fatal(err)
	}
	resolved, err := srv.local.planner.ResolveFrames(planner.Request{Doc: corpus.DraftName})
	if err != nil {
		t.Fatal(err)
	}
	plan := resolved.Plan
	const seed = 9
	layout := plan.FountainLayout(seed)
	cliEnd, srvEnd := net.Pipe()
	defer cliEnd.Close()
	defer srvEnd.Close()

	first := make(chan Request, 1)
	go func() {
		r := bufio.NewReader(srvEnd)
		if _, err := r.ReadBytes('\n'); err != nil { // the fetch request
			return
		}
		if WriteJSONLine(srvEnd, Response{OK: true, Layout: &layout}) != nil {
			return
		}
		control := make(chan Request, 1)
		go func() {
			if line, err := r.ReadBytes('\n'); err == nil {
				req, _ := DecodeRequest(line)
				control <- req
			}
		}()
		w := bufio.NewWriter(srvEnd)
		for seq := 0; ; seq++ {
			select {
			case req := <-control:
				first <- req
				if WriteEndOfStream(w) == nil {
					w.Flush()
				}
				return
			default:
			}
			frame, err := plan.FountainFrame(seed, 0, seq)
			if err != nil || WriteFrame(w, frame) != nil || w.Flush() != nil {
				return
			}
		}
	}()

	client := NewClient(cliEnd)
	client.Timeout = 5 * time.Second
	if _, err := client.Prefetch(FetchOptions{Doc: corpus.DraftName, Codec: erasure.CodecFountain}, 10000); err != nil {
		t.Fatal(err)
	}
	select {
	case req := <-first:
		if req.Op != "stopgen" || req.Gen != 0 {
			t.Fatalf("first control request was %+v, want stopgen for generation 0", req)
		}
	default:
		t.Fatal("prefetch returned without sending any control request")
	}
}
