package transport

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"mobweb/internal/channel"
	"mobweb/internal/core"
	"mobweb/internal/corpus"
	"mobweb/internal/planner"
)

// dialServer opens an extra client against a server started with
// startServerHandle.
func dialServer(t *testing.T, srv *Server) *Client {
	t.Helper()
	srv.mu.Lock()
	addr := srv.ln.Addr().String()
	srv.mu.Unlock()
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	client.Timeout = 10 * time.Second
	t.Cleanup(func() { client.Close() })
	return client
}

// TestConcurrentClientsShareCachedFrames is the shared-frame race test:
// many clients fetch the same document at once over a clean channel, so
// the server writes the very same cached frame slices to every socket.
// Run under -race this catches any append-in-place on shared bytes; the
// assertions catch cross-stream corruption and require actual sharing:
// every distinct frame is cooked exactly once across all the clients.
func TestConcurrentClientsShareCachedFrames(t *testing.T) {
	want := cleanBody(t, corpus.DraftName)
	_, srv := startServerHandle(t, ServerOptions{})

	const clients = 6
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		c := dialServer(t, srv)
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			res, err := c.Fetch(FetchOptions{Doc: corpus.DraftName, Caching: true})
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			bodies[i] = res.Body
		}(i, c)
	}
	wg.Wait()
	for i, body := range bodies {
		if !bytes.Equal(body, want) {
			t.Fatalf("client %d reconstructed a different body", i)
		}
	}
	s := srv.FrameStats()
	if s.Entries == 0 || s.Cooks != int64(s.Entries) {
		t.Fatalf("%d cooks for %d cached frames across %d identical fetches, want one each: %+v",
			s.Cooks, s.Entries, clients, s)
	}
}

// TestCachedFetchByteIdenticalToUncached is the acceptance identity: the
// same fetch against a server that retains cooked frames and one that
// retains none (negative budget, the same code path) yields the document
// a clean Plan.Frame stream reconstructs.
func TestCachedFetchByteIdenticalToUncached(t *testing.T) {
	cached, cachedSrv := startServerHandle(t, ServerOptions{})
	plain, plainSrv := startServerHandle(t, ServerOptions{
		PlannerOptions: planner.Options{FrameCacheBytes: -1},
	})

	resC, err := cached.Fetch(FetchOptions{Doc: corpus.DraftName})
	if err != nil {
		t.Fatal(err)
	}
	resP, err := plain.Fetch(FetchOptions{Doc: corpus.DraftName})
	if err != nil {
		t.Fatal(err)
	}
	if want := cleanBody(t, corpus.DraftName); !bytes.Equal(resC.Body, want) || !bytes.Equal(resP.Body, want) {
		t.Fatal("cached and uncached fetches reconstruct different bodies")
	}
	if s := cachedSrv.FrameStats(); s.Cooks == 0 {
		t.Fatalf("cache-enabled server cooked nothing: %+v", s)
	}
	if s := plainSrv.FrameStats(); s.Cooks == 0 || s.Hits != 0 || s.Entries != 0 {
		t.Fatalf("cache-disabled server retained frames: %+v", s)
	}
}

// TestGammaChangeMidSessionKeysSeparateFrames drives the γ-adaptation
// edge over the wire: an adaptive fetch over a lossy channel raises γ
// across rounds (Receiver.Rebase on the client, new frame keys on the
// server), and the document still reconstructs byte-identically. A
// mutating injector is installed, which also exercises the
// copy-before-inject path on cached frames.
func TestGammaChangeMidSessionKeysSeparateFrames(t *testing.T) {
	want := cleanBody(t, corpus.DraftName)
	model, err := channel.NewBernoulli(0.25, 11)
	if err != nil {
		t.Fatal(err)
	}
	client, srv := startServerHandle(t, ServerOptions{Injector: NewModelInjector(model)})
	res, err := client.Fetch(FetchOptions{
		Doc:        corpus.DraftName,
		Caching:    true,
		AdaptGamma: true,
		MaxRounds:  40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Body, want) {
		t.Fatal("adaptive fetch over lossy channel not byte-identical")
	}
	distinct := make(map[float64]bool)
	for _, g := range res.GammaRequests {
		distinct[g] = true
	}
	if len(distinct) < 2 {
		t.Skipf("adaptation never changed γ (requests %v); nothing to assert", res.GammaRequests)
	}
	if s := srv.FrameStats(); s.Cooks == 0 {
		t.Fatalf("no frames cooked: %+v", s)
	}
}

// TestPerConnectionInjectorFactory gives every connection its own channel
// model and runs them concurrently: per-client corruption must stay
// private (no shared injector state, no shared frame corruption).
func TestPerConnectionInjectorFactory(t *testing.T) {
	want := cleanBody(t, corpus.DraftName)
	var mu sync.Mutex
	seed := int64(0)
	_, srv := startServerHandle(t, ServerOptions{
		InjectorFactory: func() FaultInjector {
			mu.Lock()
			seed++
			s := seed
			mu.Unlock()
			model, err := channel.NewBernoulli(0.15, s)
			if err != nil {
				panic(err)
			}
			return NewModelInjector(model)
		},
	})

	const clients = 4
	var wg sync.WaitGroup
	results := make([]*FetchResult, clients)
	for i := 0; i < clients; i++ {
		c := dialServer(t, srv)
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			res, err := c.Fetch(FetchOptions{Doc: corpus.DraftName, Caching: true, MaxRounds: 30})
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			results[i] = res
		}(i, c)
	}
	wg.Wait()
	corrupted := 0
	for i, res := range results {
		if res == nil {
			t.Fatalf("client %d has no result", i)
		}
		if !bytes.Equal(res.Body, want) {
			t.Fatalf("client %d reconstructed a different body", i)
		}
		corrupted += res.PacketsCorrupted
	}
	if corrupted == 0 {
		t.Fatal("per-connection injectors corrupted nothing; factory not in effect")
	}
}

// TestGenerationBoundaryRowsServeFromCache forces multiple small
// generations, cooks every row once, and fetches: the fetch must be all
// hits, including the first and last row of every generation. The rows
// are warmed through the server's own planner handle rather than by a
// first fetch — a fetch stops after M intact frames while the server has
// raced some timing-dependent number of rows ahead of it, so "a second
// fetch cooks nothing" would be a race.
func TestGenerationBoundaryRowsServeFromCache(t *testing.T) {
	client, srv := startServerHandle(t, ServerOptions{Defaults: core.Config{MaxGeneration: 8}})
	resolved, err := srv.local.planner.ResolveFrames(planner.Request{Doc: corpus.DraftName})
	if err != nil {
		t.Fatal(err)
	}
	if gens := resolved.Plan.Generations(); gens < 2 {
		t.Fatalf("plan has %d generations, want several", gens)
	}
	for seq := 0; seq < resolved.Plan.N(); seq++ {
		if _, err := resolved.Frame(seq); err != nil {
			t.Fatal(err)
		}
	}
	warm := srv.FrameStats()
	if warm.Cooks != int64(resolved.Plan.N()) {
		t.Fatalf("warming cooked %d frames, want %d", warm.Cooks, resolved.Plan.N())
	}
	res, err := client.Fetch(FetchOptions{Doc: corpus.DraftName, Caching: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Body, cleanBody(t, corpus.DraftName)) {
		t.Fatal("fetch from warmed cache differs from the clean body")
	}
	after := srv.FrameStats()
	if after.Cooks != warm.Cooks {
		t.Fatalf("fetch cooked %d new frames, want 0 (stats %+v → %+v)", after.Cooks-warm.Cooks, warm, after)
	}
	if after.Hits < warm.Hits+int64(resolved.Plan.M()) {
		t.Fatalf("fetch produced %d hits, want at least M=%d: %+v → %+v", after.Hits-warm.Hits, resolved.Plan.M(), warm, after)
	}
}

// TestChaosSoakCachedByteIdentical is the chaos-harness soak variant of
// satellite 3: seeded connection kills and per-frame corruption with the
// frame cache squeezed to a tiny budget, so hits, misses, evictions and
// re-cooks all interleave with reconnect/resume — and every seed still
// reconstructs byte-identically.
func TestChaosSoakCachedByteIdentical(t *testing.T) {
	want := cleanBody(t, corpus.DraftName)
	seeds := []int64{1, 2, 3, 4}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		model, err := channel.NewBernoulli(0.2, seed)
		if err != nil {
			t.Fatal(err)
		}
		policy := ChaosPolicy{Seed: seed, KillAfterMin: 3000, KillAfterMax: 9000, MaxKills: 2}
		client, chaos := startChaosServer(t, ServerOptions{
			Injector: NewModelInjector(model),
			// ~16 frames resident: constant eviction pressure.
			PlannerOptions: planner.Options{FrameCacheBytes: 16 * 512},
		}, policy)
		res, err := client.Fetch(FetchOptions{Doc: corpus.DraftName, Caching: true, AdaptGamma: true, MaxRounds: 40})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !bytes.Equal(res.Body, want) {
			t.Fatalf("seed %d: reconstruction not byte-identical (%d reconnects, %d kills)",
				seed, res.Reconnects, chaos.Kills())
		}
	}
}
