package transport

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"

	"mobweb/internal/channel"
	"mobweb/internal/corpus"
	"mobweb/internal/erasure"
	"mobweb/internal/planner"
	"mobweb/internal/search"
	"mobweb/internal/textproc"
)

// corpusEngine indexes the embedded corpus.
func corpusEngine(t *testing.T) *search.Engine {
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
	return engine
}

// corpusPlanner plans over an index of its own of the corpus, for a
// server that needs a planner configured apart from its defaults.
func corpusPlanner(t *testing.T, opts planner.Options) *planner.Planner {
	t.Helper()
	pl, err := planner.New(corpusEngine(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// oneChannel puts every connection on inj's one channel realisation.
func oneChannel(inj FaultInjector) func() FaultInjector {
	return func() FaultInjector { return inj }
}

// startChaosServer launches a server behind a chaos-wrapped listener and
// returns a connected client plus the listener for kill accounting.
func startChaosServer(t *testing.T, opts ServerOptions, policy ChaosPolicy) (*Client, *ChaosListener) {
	t.Helper()
	srv, err := NewServer(corpusEngine(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	chaos := NewChaosListener(ln, policy)
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		srv.Serve(chaos)
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
	return client, chaos
}

// cleanBody fetches the document over a pristine channel, as the
// byte-identity reference for chaos runs.
func cleanBody(t *testing.T, doc string) []byte {
	t.Helper()
	client := startServer(t, ServerOptions{})
	res, err := client.Fetch(FetchOptions{Doc: doc, Caching: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Body == nil {
		t.Fatal("clean reference fetch incomplete")
	}
	return res.Body
}

// chaosAcceptancePolicy kills three connections mid-stream, all before
// the document completes: the draft's M = 45 source frames take 264 B
// each on the wire behind a ~0.7 KB layout header, so a 2–4 KB write
// budget dies after 4 to 12 frames, three connections deliver at most 36
// packets, and the fetch needs a fourth whatever the seed.
func chaosAcceptancePolicy() ChaosPolicy {
	return ChaosPolicy{Seed: 7, KillAfterMin: 2000, KillAfterMax: 4000, MaxKills: 3}
}

func TestChaosFetchReconnectsAndResumes(t *testing.T) {
	want := cleanBody(t, corpus.DraftName)
	client, chaos := startChaosServer(t, ServerOptions{}, chaosAcceptancePolicy())
	res, err := client.Fetch(FetchOptions{Doc: corpus.DraftName, Caching: true, MaxRounds: 20})
	if err != nil {
		t.Fatalf("fetch through 3 connection kills: %v", err)
	}
	if got := chaos.Kills(); got < 3 {
		t.Fatalf("chaos delivered %d kills, want at least 3 mid-stream", got)
	}
	if res.Reconnects < 3 {
		t.Errorf("client survived %d reconnects, want at least 3", res.Reconnects)
	}
	if res.Rounds <= res.Reconnects {
		t.Errorf("rounds %d should exceed reconnects %d (resumes count as rounds)", res.Rounds, res.Reconnects)
	}
	if !bytes.Equal(res.Body, want) {
		t.Fatal("reconstructed body not byte-identical after reconnect/resume")
	}
	// Resume carried the Have list: the total frames on the wire stay
	// well under a from-scratch retransmission per connection.
	if res.PacketsReceived >= 4*len(want)/256 {
		t.Errorf("resume received %d packets, looks like from-scratch per round", res.PacketsReceived)
	}
}

// TestChaosKillAfterCompletionIsDone: a connection that dies after the
// receiver completed — here in the drain after "stop", two bytes past the
// last source frame — ends the fetch, which redials for nothing: no
// reconnect, one round, one header.
func TestChaosKillAfterCompletionIsDone(t *testing.T) {
	for _, codec := range []erasure.CodecID{erasure.CodecVandermonde, erasure.CodecFountain} {
		t.Run(codec.String(), func(t *testing.T) {
			opts := FetchOptions{Doc: corpus.DraftName, Caching: true, Codec: codec}
			srv, err := NewServer(corpusEngine(t), ServerOptions{})
			if err != nil {
				t.Fatal(err)
			}
			layout, err := srv.Layout(opts)
			srv.Close()
			if err != nil {
				t.Fatal(err)
			}
			clean, err := startServer(t, ServerOptions{}).Fetch(opts)
			if err != nil {
				t.Fatal(err)
			}
			// A clean stream's first M frames are the sources, which
			// complete the receiver; the kill lands in what follows them.
			frame := clean.BytesReceived / clean.PacketsReceived
			budget := clean.HeaderBytes + layout.M()*(frameHeader+frame) + 2
			client, chaos := startChaosServer(t, ServerOptions{}, ChaosPolicy{KillAfterMin: budget, KillAfterMax: budget, MaxKills: 1})
			res, err := client.Fetch(opts)
			if err != nil {
				t.Fatal(err)
			}
			if chaos.Kills() != 1 {
				t.Fatalf("chaos delivered %d kills, want the one after completion", chaos.Kills())
			}
			if res.Reconnects != 0 || res.Rounds != 1 || res.HeaderBytes != clean.HeaderBytes {
				t.Errorf("a kill after completion cost %d reconnects, %d rounds and %d header bytes, want 0, 1 and %d",
					res.Reconnects, res.Rounds, res.HeaderBytes, clean.HeaderBytes)
			}
			if !bytes.Equal(res.Body, clean.Body) {
				t.Error("body differs from the clean fetch's")
			}
		})
	}
}

func TestChaosNoCachingUsesStrictlyMorePackets(t *testing.T) {
	withCache, _ := startChaosServer(t, ServerOptions{}, chaosAcceptancePolicy())
	cached, err := withCache.Fetch(FetchOptions{Doc: corpus.DraftName, Caching: true, MaxRounds: 20})
	if err != nil {
		t.Fatal(err)
	}
	withoutCache, _ := startChaosServer(t, ServerOptions{}, chaosAcceptancePolicy())
	uncached, err := withoutCache.Fetch(FetchOptions{Doc: corpus.DraftName, Caching: false, MaxRounds: 20})
	if err != nil {
		// NoCaching is allowed to fail outright under the same kills;
		// that alone proves the Caching advantage.
		t.Logf("NoCaching failed under the same kill schedule: %v", err)
		return
	}
	if uncached.PacketsReceived <= cached.PacketsReceived {
		t.Errorf("NoCaching received %d packets, Caching %d; caching must be strictly cheaper",
			uncached.PacketsReceived, cached.PacketsReceived)
	}
}

func TestChaosNoRetryFailsFast(t *testing.T) {
	client, _ := startChaosServer(t, ServerOptions{}, chaosAcceptancePolicy())
	client.Retry = NoRetry
	res, err := client.Fetch(FetchOptions{Doc: corpus.DraftName, Caching: true, MaxRounds: 20})
	if err == nil {
		t.Fatal("fetch completed with reconnection disabled under connection kills")
	}
	if !errors.Is(err, ErrDisconnected) {
		t.Errorf("error %v, want ErrDisconnected", err)
	}
	// Graceful degradation: the partial result still reports progress.
	if res == nil {
		t.Fatal("no partial result alongside the error")
	}
	if res.PacketsReceived == 0 || res.HeldPackets == 0 {
		t.Errorf("partial result empty (received %d, held %d)", res.PacketsReceived, res.HeldPackets)
	}
	if res.Body != nil {
		t.Error("partial result claims a full body")
	}
}

func TestChaosStallIsSurvivedByRoundTimeout(t *testing.T) {
	// A connection that hangs before dying: the round deadline must cut
	// it loose so the fetch can reconnect and resume.
	policy := ChaosPolicy{Seed: 11, KillAfterMin: 5000, KillAfterMax: 6000, MaxKills: 1, Stall: 300 * time.Millisecond}
	client, _ := startChaosServer(t, ServerOptions{}, policy)
	res, err := client.Fetch(FetchOptions{
		Doc:          corpus.DraftName,
		Caching:      true,
		MaxRounds:    20,
		RoundTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatalf("fetch through a stalling kill: %v", err)
	}
	if res.Body == nil {
		t.Fatal("fetch incomplete")
	}
	if res.Reconnects == 0 {
		t.Error("stalling kill did not force a reconnect")
	}
}

func TestChaosSoakByteIdentical(t *testing.T) {
	want := cleanBody(t, corpus.DraftName)
	seeds := []int64{1, 2, 3, 4, 5, 6}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		// Connection kills on top of per-frame corruption: the full
		// weakly-connected condition.
		model, err := channel.NewBernoulli(0.2, seed)
		if err != nil {
			t.Fatal(err)
		}
		policy := ChaosPolicy{Seed: seed, KillAfterMin: 3000, KillAfterMax: 9000, MaxKills: 2}
		client, chaos := startChaosServer(t, ServerOptions{InjectorFactory: oneChannel(NewModelInjector(model))}, policy)
		res, err := client.Fetch(FetchOptions{Doc: corpus.DraftName, Caching: true, MaxRounds: 40})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !bytes.Equal(res.Body, want) {
			t.Fatalf("seed %d: reconstruction not byte-identical (%d reconnects, %d kills)",
				seed, res.Reconnects, chaos.Kills())
		}
	}
}

func TestChaosPrefetchResumesAcrossKills(t *testing.T) {
	policy := ChaosPolicy{Seed: 5, KillAfterMin: 4000, KillAfterMax: 6000, MaxKills: 1}
	client, chaos := startChaosServer(t, ServerOptions{}, policy)
	got, err := client.Prefetch(FetchOptions{Doc: corpus.DraftName, Caching: true}, 40)
	if err != nil {
		t.Fatalf("prefetch through a kill: %v", err)
	}
	if chaos.Kills() != 1 {
		t.Fatalf("kill schedule delivered %d kills, want 1", chaos.Kills())
	}
	if got.Received < 40 {
		t.Errorf("prefetch received %d frames across the kill, want the 40-frame budget", got.Received)
	}
	res, err := client.Fetch(FetchOptions{Doc: corpus.DraftName, Caching: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.StoredPackets != got.Intact {
		t.Errorf("fetch started from %d stored packets, want %d", res.StoredPackets, got.Intact)
	}
}
