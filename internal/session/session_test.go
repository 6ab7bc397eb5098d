package session

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"mobweb/internal/channel"
	"mobweb/internal/corpus"
	"mobweb/internal/profile"
	"mobweb/internal/search"
	"mobweb/internal/textproc"
	"mobweb/internal/transport"
)

func startClient(t *testing.T, alpha float64) *transport.Client {
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
	opts := transport.ServerOptions{}
	if alpha > 0 {
		model, err := channel.NewBernoulli(alpha, 3)
		if err != nil {
			t.Fatal(err)
		}
		injector := transport.NewModelInjector(model)
		opts.InjectorFactory = func() transport.FaultInjector { return injector }
	}
	srv, err := transport.NewServer(engine, opts)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})
	client, err := transport.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	client.Timeout = 10 * time.Second
	t.Cleanup(func() { client.Close() })
	return client
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil, Options{}); err == nil {
		t.Error("nil client accepted")
	}
}

func TestSearchSkimReadLoop(t *testing.T) {
	client := startClient(t, 0)
	prof, err := profile.New(profile.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(client, prof, Options{})
	if err != nil {
		t.Fatal(err)
	}

	hits, err := s.Search("mobile web browsing", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("no hits")
	}

	skim, err := s.Skim(hits[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	if skim.InfoContent < 0.3 {
		t.Errorf("skim IC %v below threshold", skim.InfoContent)
	}
	if skim.Body != nil {
		t.Error("skim downloaded the whole document")
	}

	read, err := s.Read(hits[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	if read.Body == nil {
		t.Fatal("read incomplete")
	}
	if prof.Events() != 1 {
		t.Errorf("profile events = %d, want 1 after Read", prof.Events())
	}

	stats := s.Stats()
	if stats.Searches != 1 || stats.Skims != 1 || stats.Reads != 1 {
		t.Errorf("stats %+v", stats)
	}
	if stats.PacketsReceived == 0 {
		t.Error("no packets accounted")
	}
}

func TestDiscardFeedsNegativeSignal(t *testing.T) {
	client := startClient(t, 0)
	prof, err := profile.New(profile.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(client, prof, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Search("vector retrieval relevance", 5); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Skim("ir-retrieval.xml"); err != nil {
		t.Fatal(err)
	}
	s.Discard("ir-retrieval.xml")
	if prof.Events() != 1 {
		t.Errorf("profile events = %d, want 1 after Discard", prof.Events())
	}
	if got := prof.ScoreText("vector space retrieval relevance feedback"); got >= 0 {
		t.Errorf("discarded topic score = %v, want < 0", got)
	}
	if s.Stats().Discards != 1 {
		t.Error("discard not counted")
	}
}

func TestPersonalizationReRanks(t *testing.T) {
	client := startClient(t, 0)
	prof, err := profile.New(profile.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(client, prof, Options{ProfileBlend: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	// "caching" matches both the draft (mobile) and the survey page.
	before, err := s.Search("caching documents", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) < 2 {
		t.Skip("need at least two hits for a re-ranking test")
	}
	// Read the second-ranked document; its topics strengthen.
	target := before[1].Name
	if _, err := s.Skim(target); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(target); err != nil {
		t.Fatal(err)
	}
	after, err := s.Search("caching documents", 5)
	if err != nil {
		t.Fatal(err)
	}
	posBefore, posAfter := position(before, target), position(after, target)
	if posAfter > posBefore {
		t.Errorf("read document fell from rank %d to %d", posBefore, posAfter)
	}
	if posAfter != 0 {
		t.Logf("note: target at rank %d after feedback (blended scores: %+v)", posAfter, after)
	}
}

func TestThinkTimePrefetchingReducesFetchTraffic(t *testing.T) {
	client := startClient(t, 0)
	s, err := New(client, nil, Options{ThinkTime: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	hits, err := s.Search("mobile web browsing", 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Read(hits[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	if res.StoredPackets == 0 {
		t.Error("think-time prefetch contributed nothing to the read")
	}
	if s.Stats().PrefetchedUsed == 0 {
		t.Error("prefetch usage not accounted")
	}
}

func TestSessionOverLossyChannel(t *testing.T) {
	client := startClient(t, 0.3)
	s, err := New(client, nil, Options{ThinkTime: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	hits, err := s.Search("mobile web browsing", 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Read(hits[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	if res.Body == nil {
		t.Fatal("read over lossy channel incomplete")
	}
}

func position(hits []RankedHit, name string) int {
	for i, h := range hits {
		if h.Name == name {
			return i
		}
	}
	return len(hits)
}

func TestSessionContextCancellation(t *testing.T) {
	client := startClient(t, 0)
	prof, err := profile.New(profile.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := New(client, prof, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the user walked out of coverage before asking
	if _, err := sess.SearchContext(ctx, "mobile web", 5); !errors.Is(err, context.Canceled) {
		t.Errorf("SearchContext error %v, want context.Canceled", err)
	}
	if _, err := sess.SkimContext(ctx, corpus.DraftName); !errors.Is(err, context.Canceled) {
		t.Errorf("SkimContext error %v, want context.Canceled", err)
	}
	if _, err := sess.ReadContext(ctx, corpus.DraftName); !errors.Is(err, context.Canceled) {
		t.Errorf("ReadContext error %v, want context.Canceled", err)
	}
	// The connection stays usable for a live context afterwards.
	if _, err := sess.Search("mobile web", 5); err != nil {
		t.Errorf("session unusable after cancelled calls: %v", err)
	}
}
