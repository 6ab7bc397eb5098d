package transport

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"mobweb/internal/channel"
	"mobweb/internal/core"
	"mobweb/internal/corpus"
	"mobweb/internal/erasure"
	"mobweb/internal/fountain"
	"mobweb/internal/obs"
	"mobweb/internal/packet"
)

func TestFountainFetchCleanChannel(t *testing.T) {
	client := startServer(t, ServerOptions{})
	frames := 0
	res, err := client.Fetch(FetchOptions{
		Doc:   corpus.DraftName,
		Codec: erasure.CodecFountain,
		OnProgress: func(p Progress) {
			frames++ // per-frame hook exercised on the fountain path
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Body == nil {
		t.Fatal("fountain fetch did not reconstruct the body")
	}
	if res.Rounds != 1 || res.Stalled {
		t.Errorf("clean fountain fetch used %d rounds (stalled=%v)", res.Rounds, res.Stalled)
	}
	doc, err := corpus.Load(corpus.DraftName)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Body, doc.Body()) {
		t.Error("fountain body differs from the source document")
	}
	if frames == 0 {
		t.Error("no progress callbacks on the fountain path")
	}
}

// TestFountainSingleRoundUnderLoss is the rateless payoff over the real
// transport: where the fixed-rate codec stalls into retransmission
// rounds under loss, the open-loop fountain stream completes in ONE
// round at every corruption rate of the grid — the server simply keeps
// sending until the client's stopgens land.
func TestFountainSingleRoundUnderLoss(t *testing.T) {
	doc, err := corpus.Load(corpus.DraftName)
	if err != nil {
		t.Fatal(err)
	}
	for _, alpha := range []float64{0.05, 0.1, 0.2, 0.3, 0.4} {
		t.Run(fmt.Sprintf("alpha=%.2f", alpha), func(t *testing.T) {
			model, err := channel.NewBernoulli(alpha, 7)
			if err != nil {
				t.Fatal(err)
			}
			client := startServer(t, ServerOptions{Injector: NewModelInjector(model)})
			res, err := client.Fetch(FetchOptions{
				Doc:       corpus.DraftName,
				Codec:     erasure.CodecFountain,
				Caching:   true,
				MaxRounds: 5,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Body == nil {
				t.Fatalf("fountain fetch over α=%.2f failed to reconstruct", alpha)
			}
			if res.Rounds != 1 {
				t.Errorf("fountain fetch used %d rounds at α=%.2f, want 1 (open-loop)", res.Rounds, alpha)
			}
			if res.PacketsCorrupted == 0 {
				t.Errorf("injector corrupted nothing at α=%.2f", alpha)
			}
			if !bytes.Equal(res.Body, doc.Body()) {
				t.Error("reconstructed body differs despite CRC verification")
			}
		})
	}
}

func TestFountainServerDefaultCodec(t *testing.T) {
	// A codec-oblivious client against a fountain-default server gets a
	// fountain layout and decodes it transparently.
	client := startServer(t, ServerOptions{DefaultCodec: erasure.CodecFountain})
	res, err := client.Fetch(FetchOptions{Doc: corpus.DraftName})
	if err != nil {
		t.Fatal(err)
	}
	if res.Body == nil {
		t.Fatal("fetch against fountain-default server incomplete")
	}
	doc, err := corpus.Load(corpus.DraftName)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Body, doc.Body()) {
		t.Error("body differs from source")
	}
}

func TestFountainExplicitSeedPinsStream(t *testing.T) {
	// Two fetches pinning the same seed must see the same layout seed;
	// distinct pinned seeds must differ (independent streams).
	client := startServer(t, ServerOptions{})
	for _, tc := range []struct{ a, b uint64 }{{41, 41}, {41, 42}} {
		resA, err := client.Fetch(FetchOptions{Doc: corpus.DraftName, Codec: erasure.CodecFountain, FountainSeed: tc.a})
		if err != nil {
			t.Fatal(err)
		}
		resB, err := client.Fetch(FetchOptions{Doc: corpus.DraftName, Codec: erasure.CodecFountain, FountainSeed: tc.b})
		if err != nil {
			t.Fatal(err)
		}
		if resA.Body == nil || resB.Body == nil {
			t.Fatal("pinned-seed fetch incomplete")
		}
	}
}

func TestFountainStopAtIC(t *testing.T) {
	// Small generations make fountain IC genuinely progressive: each
	// generation decodes as its own burst, so accrued IC climbs in steps
	// and the 0.3 threshold fires mid-document. (A single-generation
	// plan decodes all-at-once and StopAtIC degenerates to completion.)
	client := startServer(t, ServerOptions{Defaults: core.Config{MaxGeneration: 8}})
	res, err := client.Fetch(FetchOptions{
		Doc:      corpus.DraftName,
		Codec:    erasure.CodecFountain,
		StopAtIC: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Body != nil {
		t.Error("early-stopped fountain fetch still reconstructed the whole body")
	}
	if res.InfoContent < 0.3 {
		t.Errorf("InfoContent = %v, want >= 0.3", res.InfoContent)
	}
	// The connection must remain usable after an early stop.
	if _, err := client.Search("mobile", 3); err != nil {
		t.Errorf("connection unusable after stop: %v", err)
	}
}

func TestFountainPrefetchPrimesFetch(t *testing.T) {
	client := startServer(t, ServerOptions{})
	opts := FetchOptions{Doc: corpus.DraftName, Codec: erasure.CodecFountain, Caching: true}
	pre, err := client.Prefetch(opts, 10)
	if err != nil {
		t.Fatal(err)
	}
	if pre.Intact == 0 {
		t.Fatal("prefetch stored nothing")
	}
	res, err := client.Fetch(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.StoredPackets != pre.Intact {
		t.Errorf("fetch started from %d stored packets, want %d", res.StoredPackets, pre.Intact)
	}
	if res.Body == nil {
		t.Fatal("prefetched fountain fetch incomplete")
	}
}

// TestFountainBroadcastFanout serves one cooked fountain stream to many
// subscribers: every subscriber reconstructs the document, and the
// server's encode+marshal work for 8 subscribers stays under twice the
// work for one — the fan-out amortizes instead of cooking per socket.
func TestFountainBroadcastFanout(t *testing.T) {
	const subscribers = 8
	reg := obs.NewRegistry()
	many := broadcastWork(t, subscribers, reg)
	snap := reg.Snapshot()
	if subs := snap.Gauges["serve.broadcast_subscribers"]; subs != 0 {
		t.Errorf("broadcast subscriber gauge %d after all streams ended, want 0", subs)
	}
	if frames := snap.Counters["serve.broadcast_frames"]; frames == 0 {
		t.Error("no frames delivered through the broadcast hub")
	}
	one := broadcastWork(t, 1, obs.NewRegistry())
	t.Logf("broadcast work: %d for %d subscribers, %d for one", many, subscribers, one)
	if one == 0 || many >= 2*one {
		t.Errorf("broadcast work %d for %d subscribers, %d for one: want under 2×", many, subscribers, one)
	}
}

// broadcastWork fans the draft document's fountain stream out to subs
// concurrent broadcast subscribers of a fresh server — a cold frame
// cache, so each pass pays for its own cooking — and returns the work
// the server spent: fountain symbols generated plus frames marshalled.
// The carousel is paced to an emulated link rate: subscribers join a
// stream the air interface feeds, not one racing at CPU speed. Every
// subscriber is dialed before the counters are read, and the counters
// are read again only after the producer has exited, so the difference
// is the whole stream and nothing else.
func broadcastWork(t *testing.T, subs int, reg *obs.Registry) int64 {
	t.Helper()
	opts := ServerOptions{Metrics: reg, PacketDelay: 500 * time.Microsecond}
	addr := startServer(t, opts).conn.RemoteAddr().String()
	doc, err := corpus.Load(corpus.DraftName)
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]*Client, subs)
	for i := range clients {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		c.Timeout = 10 * time.Second
		t.Cleanup(func() { c.Close() })
		clients[i] = c
	}
	before := fountainWork()
	var wg sync.WaitGroup
	errs := make(chan error, subs)
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			res, err := c.Fetch(FetchOptions{
				Doc:       corpus.DraftName,
				Codec:     erasure.CodecFountain,
				Broadcast: true,
				Caching:   true,
				MaxRounds: 20,
			})
			if err != nil {
				errs <- fmt.Errorf("subscriber %d: %w", i, err)
				return
			}
			if !bytes.Equal(res.Body, doc.Body()) {
				errs <- fmt.Errorf("subscriber %d: body differs", i)
			}
		}(i, c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	waitFor(t, func() bool { return reg.Snapshot().Gauges["serve.broadcast_streams"] == 0 })
	return fountainWork() - before
}

// fountainWork reads the process-wide encode and marshal counters.
func fountainWork() int64 {
	f := fountain.MetricsProbe().(map[string]int64)
	c := core.MetricsProbe().(map[string]int64)
	return f["packets_generated"] + c["frame_marshals"]
}

// TestFountainBroadcastChurn is the -race stress: subscribers join and
// leave mid-stream (early StopAtIC leavers, late joiners) while the
// single producer fans out shared frames. Run with -race.
func TestFountainBroadcastChurn(t *testing.T) {
	client := startServer(t, ServerOptions{})
	addr := client.conn.RemoteAddr().String()
	doc, err := corpus.Load(corpus.DraftName)
	if err != nil {
		t.Fatal(err)
	}
	const waves = 3
	const perWave = 6
	var wg sync.WaitGroup
	errs := make(chan error, waves*perWave)
	for wave := 0; wave < waves; wave++ {
		for i := 0; i < perWave; i++ {
			wg.Add(1)
			go func(wave, i int) {
				defer wg.Done()
				// Stagger joins so later waves subscribe mid-stream.
				time.Sleep(time.Duration(wave*15+i) * time.Millisecond) //mobweb:nondet-ok join-time stagger in a stress test
				c, err := Dial(addr)
				if err != nil {
					errs <- err
					return
				}
				defer c.Close()
				c.Timeout = 10 * time.Second
				opts := FetchOptions{
					Doc:       corpus.DraftName,
					Codec:     erasure.CodecFountain,
					Broadcast: true,
					Caching:   true,
					MaxRounds: 20,
				}
				if i%3 == 0 {
					opts.StopAtIC = 0.2 // early leaver: unsubscribes mid-stream
				}
				res, err := c.Fetch(opts)
				if err != nil {
					errs <- fmt.Errorf("wave %d sub %d: %w", wave, i, err)
					return
				}
				if opts.StopAtIC == 0 && !bytes.Equal(res.Body, doc.Body()) {
					errs <- fmt.Errorf("wave %d sub %d: body differs", wave, i)
				}
			}(wave, i)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestChaosFountainResumeCarriesSeqs extends the chaos drill to the
// rateless codec: a mid-stream connection kill must be survived by
// redial + resume, with the resumed request carrying the packed
// (gen, seq) identifiers of every fountain packet already held — the
// server skips them, and reconstruction stays byte-identical.
func TestChaosFountainResumeCarriesSeqs(t *testing.T) {
	want := cleanBody(t, corpus.DraftName)
	reg := obs.NewRegistry()
	policy := ChaosPolicy{Seed: 9, KillAfterMin: 5000, KillAfterMax: 8000, MaxKills: 2}
	client, chaos := startChaosServer(t, ServerOptions{Metrics: reg}, policy)
	res, err := client.Fetch(FetchOptions{
		Doc:       corpus.DraftName,
		Codec:     erasure.CodecFountain,
		Caching:   true,
		MaxRounds: 20,
	})
	if err != nil {
		t.Fatalf("fountain fetch through connection kills: %v", err)
	}
	if chaos.Kills() == 0 {
		t.Fatal("kill schedule delivered no kills")
	}
	if res.Reconnects == 0 {
		t.Error("client survived no reconnects despite kills")
	}
	if !bytes.Equal(res.Body, want) {
		t.Fatal("fountain reconstruction not byte-identical after reconnect/resume")
	}
	// The server-side fetch log must show a resumed stream whose request
	// carried held fountain packets.
	resumed := false
	for _, rec := range reg.FetchLog().Recent(50) {
		if rec.Origin == "server" && rec.Have > 0 {
			resumed = true
		}
	}
	if !resumed {
		t.Error("no server stream saw a non-empty Have list; resume did not carry fountain seqs")
	}
}

// TestChaosFountainSoakByteIdentical runs the fountain codec through
// seeded kill schedules on top of per-frame corruption — the full
// weakly-connected condition, rateless edition.
func TestChaosFountainSoakByteIdentical(t *testing.T) {
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
		client, chaos := startChaosServer(t, ServerOptions{Injector: NewModelInjector(model)}, policy)
		res, err := client.Fetch(FetchOptions{
			Doc:       corpus.DraftName,
			Codec:     erasure.CodecFountain,
			Caching:   true,
			MaxRounds: 40,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !bytes.Equal(res.Body, want) {
			t.Fatalf("seed %d: fountain reconstruction not byte-identical (%d reconnects, %d kills)",
				seed, res.Reconnects, chaos.Kills())
		}
	}
}

func TestFountainOvershootCap(t *testing.T) {
	for _, tc := range []struct{ m, want int }{
		{1, 65}, {8, 72}, {16, 80}, {32, 128}, {255, 1020},
	} {
		if got := fountainOvershootCap(tc.m); got != tc.want {
			t.Errorf("cap(%d) = %d, want %d", tc.m, got, tc.want)
		}
	}
}

func TestPackedSeqsSurviveWire(t *testing.T) {
	// Fountain Have lists are JSON ints; gen>0 packs above 2^32 and must
	// round-trip the control channel exactly.
	req := Request{Op: "fetch", Have: []int{packet.PackSeq(0, 3), packet.PackSeq(2, 7)}}
	var buf bytes.Buffer
	if err := WriteJSONLine(&buf, req); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRequest(bytes.TrimSpace(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i, packed := range req.Have {
		if got.Have[i] != packed {
			t.Errorf("Have[%d] = %d, want %d", i, got.Have[i], packed)
		}
	}
	if g, s := packet.UnpackSeq(got.Have[1]); g != 2 || s != 7 {
		t.Errorf("unpacked (%d,%d), want (2,7)", g, s)
	}
}
