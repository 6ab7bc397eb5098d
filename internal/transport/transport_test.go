package transport

import (
	"bytes"
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"mobweb/internal/channel"
	"mobweb/internal/content"
	"mobweb/internal/corpus"
	"mobweb/internal/document"
	"mobweb/internal/search"
	"mobweb/internal/textproc"
)

// startServer launches a server over a loopback listener and returns a
// connected client plus a cleanup-registered shutdown.
func startServer(t *testing.T, opts ServerOptions) *Client {
	t.Helper()
	engine := search.NewEngine(textproc.Options{})
	docs, err := corpus.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		if err := engine.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := NewServer(engine, opts)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		srv.Serve(ln)
	}()
	t.Cleanup(func() {
		srv.Close()
		<-serveDone
	})
	client, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	client.Timeout = 10 * time.Second
	t.Cleanup(func() { client.Close() })
	return client
}

func TestSearchOverWire(t *testing.T) {
	client := startServer(t, ServerOptions{})
	hits, err := client.Search("mobile web browsing", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("no hits for a corpus query")
	}
	if hits[0].Name != corpus.DraftName {
		t.Errorf("top hit = %q, want %q", hits[0].Name, corpus.DraftName)
	}
	for i := 1; i < len(hits); i++ {
		if hits[i].Score > hits[i-1].Score {
			t.Error("hits not sorted by score")
		}
	}
}

func TestFetchCleanChannel(t *testing.T) {
	client := startServer(t, ServerOptions{})
	res, err := client.Fetch(FetchOptions{Doc: corpus.DraftName})
	if err != nil {
		t.Fatal(err)
	}
	if res.Body == nil {
		t.Fatal("clean fetch did not reconstruct the body")
	}
	if res.Rounds != 1 || res.Stalled {
		t.Errorf("clean fetch used %d rounds (stalled=%v)", res.Rounds, res.Stalled)
	}
	if res.PacketsCorrupted != 0 {
		t.Errorf("clean channel corrupted %d packets", res.PacketsCorrupted)
	}
	if res.InfoContent < 0.999 {
		t.Errorf("InfoContent = %v, want ~1", res.InfoContent)
	}
	// The body must contain the document's text.
	doc, err := corpus.Load(corpus.DraftName)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Body, doc.Body()) {
		t.Error("fetched body differs from the source document")
	}
}

func TestFetchUnknownDocument(t *testing.T) {
	client := startServer(t, ServerOptions{})
	if _, err := client.Fetch(FetchOptions{Doc: "missing.xml"}); err == nil {
		t.Error("unknown document fetch succeeded")
	}
	if _, err := client.Fetch(FetchOptions{}); err == nil {
		t.Error("empty document name accepted")
	}
}

func TestFetchWithCorruptionAndCaching(t *testing.T) {
	model, err := channel.NewBernoulli(0.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	client := startServer(t, ServerOptions{InjectorFactory: oneChannel(NewModelInjector(model))})
	res, err := client.Fetch(FetchOptions{
		Doc:       corpus.DraftName,
		Caching:   true,
		MaxRounds: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Body == nil {
		t.Fatalf("fetch over α=0.3 channel failed to reconstruct (rounds=%d)", res.Rounds)
	}
	if res.PacketsCorrupted == 0 {
		t.Error("injector corrupted nothing at α=0.3")
	}
	doc, err := corpus.Load(corpus.DraftName)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Body, doc.Body()) {
		t.Error("reconstructed body differs despite CRC verification")
	}
}

func TestFetchSelectiveRetransmission(t *testing.T) {
	// At α = 0.5 with γ = 1.5 a single round nearly always stalls; with
	// caching, later rounds must only carry the missing packets and the
	// fetch must still complete.
	model, err := channel.NewBernoulli(0.5, 11)
	if err != nil {
		t.Fatal(err)
	}
	client := startServer(t, ServerOptions{InjectorFactory: oneChannel(NewModelInjector(model))})
	res, err := client.Fetch(FetchOptions{
		Doc:       corpus.DraftName,
		Caching:   true,
		MaxRounds: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Body == nil {
		t.Fatal("caching fetch failed on a very lossy channel")
	}
	if !res.Stalled || res.Rounds < 2 {
		t.Errorf("expected stalls at α=0.5 (rounds=%d, stalled=%v)", res.Rounds, res.Stalled)
	}
}

func TestFetchStopAtIC(t *testing.T) {
	client := startServer(t, ServerOptions{})
	res, err := client.Fetch(FetchOptions{
		Doc:      corpus.DraftName,
		Query:    "browsing mobile web",
		Notion:   content.NotionQIC,
		LOD:      document.LODParagraph,
		StopAtIC: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Body != nil {
		t.Error("early-stopped fetch still reconstructed the whole body")
	}
	if res.InfoContent < 0.3 {
		t.Errorf("InfoContent = %v, want >= 0.3", res.InfoContent)
	}
	if len(res.Rendered) == 0 {
		t.Error("early stop rendered nothing")
	}
	// The connection must remain usable after an early stop.
	if _, err := client.Search("mobile", 3); err != nil {
		t.Errorf("connection unusable after stop: %v", err)
	}
}

func TestFetchProgressCallback(t *testing.T) {
	client := startServer(t, ServerOptions{})
	var events []Progress
	res, err := client.Fetch(FetchOptions{
		Doc:        corpus.DraftName,
		LOD:        document.LODParagraph,
		OnProgress: func(p Progress) { events = append(events, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no progress events")
	}
	prevIC := -1.0
	newUnits := 0
	for i, e := range events {
		if e.InfoContent+1e-9 < prevIC {
			t.Errorf("event %d: IC decreased %v → %v", i, prevIC, e.InfoContent)
		}
		prevIC = e.InfoContent
		newUnits += len(e.NewUnits)
	}
	if newUnits == 0 {
		t.Error("no units surfaced progressively")
	}
	if res.Body == nil {
		t.Error("fetch did not complete")
	}
}

func TestQICOrderingOverWire(t *testing.T) {
	// With a query, the first rendered units must be query-relevant: the
	// draft's abstract/introduction rank above the encoding section.
	client := startServer(t, ServerOptions{})
	var firstText string
	_, err := client.Fetch(FetchOptions{
		Doc:    corpus.DraftName,
		Query:  "browsing mobile web",
		Notion: content.NotionQIC,
		LOD:    document.LODSection,
		OnProgress: func(p Progress) {
			if firstText == "" && len(p.NewUnits) > 0 {
				firstText = p.NewUnits[0].Text
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if firstText == "" {
		t.Fatal("no unit rendered")
	}
	lower := strings.ToLower(firstText)
	if !strings.Contains(lower, "mobile") {
		t.Errorf("first rendered unit is not query-relevant: %.80q", firstText)
	}
}

func TestServerCloseUnblocksServe(t *testing.T) {
	engine := search.NewEngine(textproc.Options{})
	srv, err := NewServer(engine, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	time.Sleep(10 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != ErrServerClosed {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
	// Double close is safe.
	if err := srv.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestNewServerNilEngine(t *testing.T) {
	if _, err := NewServer(nil, ServerOptions{}); err == nil {
		t.Error("nil engine accepted")
	}
}

func TestDropInjector(t *testing.T) {
	// A disconnecting model drops frames entirely; the client must still
	// recover via redundancy or retransmission.
	inner, err := channel.NewBernoulli(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	model, err := channel.NewDisconnecting(inner, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	client := startServer(t, ServerOptions{InjectorFactory: oneChannel(NewModelInjector(model))})
	res, err := client.Fetch(FetchOptions{
		Doc:       corpus.DraftName,
		Caching:   true,
		MaxRounds: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Body == nil {
		t.Fatal("fetch failed under periodic disconnection")
	}
}

func TestUnknownOp(t *testing.T) {
	client := startServer(t, ServerOptions{})
	if err := client.send(context.Background(), Request{Op: "bogus"}); err != nil {
		t.Fatal(err)
	}
	resp, _, err := client.readResponse(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Error == "" {
		t.Errorf("bogus op got %+v, want error response", resp)
	}
}
