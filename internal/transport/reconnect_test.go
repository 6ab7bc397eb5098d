package transport

import (
	"bytes"
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"mobweb/internal/channel"
	"mobweb/internal/core"
	"mobweb/internal/corpus"
)

// startServerHandle is startServer but also returns the server, for
// tests that crash it mid-session.
func startServerHandle(t *testing.T, opts ServerOptions) (*Client, *Server) {
	t.Helper()
	srv, err := NewServer(corpusEngine(t), opts)
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
	return client, srv
}

func TestSendSetsWriteDeadline(t *testing.T) {
	// A wedged peer that never reads: without a write deadline, send
	// blocks forever once the unbuffered pipe refuses the flush.
	cliEnd, srvEnd := net.Pipe()
	defer cliEnd.Close()
	defer srvEnd.Close()
	client := NewClient(cliEnd)
	client.Timeout = 100 * time.Millisecond

	start := time.Now()
	_, err := client.send(context.Background(), Request{Op: "search", Query: "x"})
	if err == nil {
		t.Fatal("send to a non-reading peer succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("send took %v to fail, want ~100ms (write deadline)", elapsed)
	}
}

func TestFetchErrorKeepsStoredPackets(t *testing.T) {
	client, srv := startServerHandle(t, ServerOptions{})
	opts := FetchOptions{Doc: corpus.DraftName, Caching: true}
	got, err := client.Prefetch(opts, 15)
	if err != nil {
		t.Fatal(err)
	}
	if got.Intact != 15 {
		t.Fatalf("prefetched %d intact packets, want 15", got.Intact)
	}

	srv.Close()
	client.Retry = NoRetry
	client.Timeout = time.Second
	res, err := client.Fetch(opts)
	if err == nil {
		t.Fatal("fetch against a dead server succeeded")
	}
	if res == nil || res.StoredPackets != 15 {
		t.Fatalf("partial result %+v, want StoredPackets 15", res)
	}
	// The prefetched packets stay in the store through the failed fetch,
	// so a retry keeps the prefetch benefit.
	if n := client.Held(opts); n < 15 {
		t.Errorf("store holds %d packets after the failed fetch, want at least 15", n)
	}
}

func TestFetchContextCancellation(t *testing.T) {
	client, _ := startServerHandle(t, ServerOptions{PacketDelay: 5 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(40 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := client.FetchContext(ctx, FetchOptions{Doc: corpus.DraftName, Caching: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("cancellation took %v to take effect", elapsed)
	}
	if res == nil {
		t.Fatal("no partial result on cancellation")
	}
	if res.PacketsReceived == 0 {
		t.Error("cancelled mid-stream but no packets recorded")
	}
}

func TestAdaptiveGammaConvergesTowardAlpha(t *testing.T) {
	const alpha = 0.3
	want := cleanBody(t, corpus.DraftName)
	model, err := channel.NewBernoulli(alpha, 4)
	if err != nil {
		t.Fatal(err)
	}
	client := startServer(t, ServerOptions{InjectorFactory: oneChannel(NewModelInjector(model))})
	// γ=1.0 sends no redundancy, so round one always stalls on a lossy
	// channel; adaptation must raise γ from the observed corruption.
	res, err := client.Fetch(FetchOptions{
		Doc:        corpus.DraftName,
		Gamma:      1.0,
		AdaptGamma: true,
		Caching:    true,
		MaxRounds:  30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Body, want) {
		t.Fatal("adaptive fetch body not byte-identical")
	}
	if res.Rounds < 2 || len(res.AlphaEstimates) < 2 {
		t.Fatalf("expected multiple rounds under γ=1.0 at α=0.3 (rounds=%d, estimates=%v)",
			res.Rounds, res.AlphaEstimates)
	}
	final := res.AlphaEstimates[len(res.AlphaEstimates)-1]
	if final < 0.15 || final > 0.45 {
		t.Errorf("final α estimate %.3f did not converge toward %.1f (trajectory %v)",
			final, alpha, res.AlphaEstimates)
	}
	// Later rounds must request more redundancy than the α=0.1 default
	// of γ=1.5 (the paper's Figure 3 operating point).
	maxGamma := 0.0
	for _, g := range res.GammaRequests[1:] {
		if g > maxGamma {
			maxGamma = g
		}
	}
	if maxGamma <= core.DefaultGamma {
		t.Errorf("adapted γ requests %v never exceeded the default %.2f at α=0.3",
			res.GammaRequests, core.DefaultGamma)
	}
}

func TestAdaptiveGammaKeepsCachedPacketsAcrossRebase(t *testing.T) {
	model, err := channel.NewBernoulli(0.3, 12)
	if err != nil {
		t.Fatal(err)
	}
	client := startServer(t, ServerOptions{InjectorFactory: oneChannel(NewModelInjector(model))})
	res, err := client.Fetch(FetchOptions{
		Doc:        corpus.DraftName,
		Gamma:      1.0,
		AdaptGamma: true,
		Caching:    true,
		MaxRounds:  30,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The γ change rebuilds the layout (more cooked packets), yet cached
	// packets survive the rebase: across all rounds the client never
	// needs more transmissions than a from-scratch reload each round
	// would take.
	perRound := res.PacketsReceived / res.Rounds
	layoutN := res.HeldPackets // reconstructible ⇒ held ≥ M; N ≥ held
	if perRound >= layoutN {
		t.Errorf("average %d packets per round with caching across rebases; looks like from-scratch (N≈%d)",
			perRound, layoutN)
	}
	if res.Body == nil {
		t.Fatal("fetch incomplete")
	}
}

func TestRoundTimeoutForcesResume(t *testing.T) {
	// 20ms per frame: a full round takes ~1.4s, far over the 300ms round
	// deadline, so every round is cut off and resumed; with caching the
	// partial windows still accumulate to completion.
	client, _ := startServerHandle(t, ServerOptions{PacketDelay: 20 * time.Millisecond})
	res, err := client.Fetch(FetchOptions{
		Doc:          corpus.DraftName,
		Caching:      true,
		MaxRounds:    30,
		RoundTimeout: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Body == nil {
		t.Fatal("fetch incomplete")
	}
	if res.Reconnects == 0 {
		t.Error("round deadline never fired despite pacing slower than the budget")
	}
}

func TestDisconnectingModelCachingBeatsNoCaching(t *testing.T) {
	// Satellite: the channel-level Disconnecting model (drop bursts) run
	// end-to-end through ModelInjector. Caching accumulates across the
	// bursts; NoCaching must land a near-perfect round all at once.
	run := func(caching bool) (*FetchResult, error) {
		inner, err := channel.NewBernoulli(0.3, 17)
		if err != nil {
			t.Fatal(err)
		}
		model, err := channel.NewDisconnecting(inner, 10, 3)
		if err != nil {
			t.Fatal(err)
		}
		client := startServer(t, ServerOptions{InjectorFactory: oneChannel(NewModelInjector(model))})
		return client.Fetch(FetchOptions{Doc: corpus.DraftName, Caching: caching, MaxRounds: 30})
	}
	cached, err := run(true)
	if err != nil {
		t.Fatalf("caching fetch failed: %v", err)
	}
	if cached.Body == nil {
		t.Fatal("caching fetch incomplete")
	}
	uncached, err := run(false)
	if err != nil {
		if !errors.Is(err, ErrRoundsExhausted) {
			t.Fatalf("NoCaching failed with %v, want ErrRoundsExhausted", err)
		}
		if cached.Rounds >= 30 {
			t.Errorf("caching used %d rounds, no better than exhausted NoCaching", cached.Rounds)
		}
		return
	}
	if uncached.Rounds <= cached.Rounds {
		t.Errorf("NoCaching finished in %d rounds, Caching in %d; caching must win", uncached.Rounds, cached.Rounds)
	}
}

func TestFetchRoundsExhaustedReturnsPartial(t *testing.T) {
	model, err := channel.NewBernoulli(0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	client := startServer(t, ServerOptions{InjectorFactory: oneChannel(NewModelInjector(model))})
	res, err := client.Fetch(FetchOptions{Doc: corpus.DraftName, Caching: false, MaxRounds: 2})
	if !errors.Is(err, ErrRoundsExhausted) {
		t.Fatalf("error %v, want ErrRoundsExhausted", err)
	}
	if res == nil {
		t.Fatal("no partial result on rounds exhaustion")
	}
	if !res.Stalled || res.Rounds != 2 {
		t.Errorf("partial result %+v, want Stalled after 2 rounds", res)
	}
	if res.HeldPackets == 0 {
		t.Error("partial result reports no held packets at α=0.5")
	}
}
