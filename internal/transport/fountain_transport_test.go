package transport

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mobweb/internal/channel"
	"mobweb/internal/core"
	"mobweb/internal/corpus"
	"mobweb/internal/erasure"
	"mobweb/internal/obs"
	"mobweb/internal/packet"
	"mobweb/internal/planner"
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
	// The stream is systematic: on a clean channel the draft's one
	// generation arrives as its M source packets, and the client stops on
	// the M-th without consuming a repair.
	m := (len(doc.Body()) + core.DefaultPacketSize - 1) / core.DefaultPacketSize
	if res.PacketsReceived != m || res.HeldPackets != m {
		t.Errorf("clean fountain fetch received %d frames and held %d, want M = %d each",
			res.PacketsReceived, res.HeldPackets, m)
	}
}

// TestFountainSingleRoundUnderLoss is the rateless payoff over the real
// transport: where the fixed-rate codec stalls into retransmission
// rounds under loss, the fountain stream completes in ONE round at every
// corruption rate of the grid — the client grants past the first window
// until its stopgens land.
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
			client := startServer(t, ServerOptions{InjectorFactory: oneChannel(NewModelInjector(model))})
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
				t.Errorf("fountain fetch used %d rounds at α=%.2f, want 1 (rateless)", res.Rounds, alpha)
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

// TestConcurrentFetchesCookOnce is the fan-out through the frame cache:
// concurrent private fountain fetches of one plan, on a cold cache, cook
// each frame once between them. Every stream sends its own frames, yet
// the server cooks no more than one credit window — the frames a single
// fetch may be sent without asking — however many clients share it.
func TestConcurrentFetchesCookOnce(t *testing.T) {
	const fetches = 8
	reg := obs.NewRegistry()
	client, srv := startServerHandle(t, ServerOptions{Metrics: reg})
	addr := client.conn.RemoteAddr().String()
	doc, err := corpus.Load(corpus.DraftName)
	if err != nil {
		t.Fatal(err)
	}
	resolved, err := srv.local.planner.ResolveFrames(planner.Request{Doc: corpus.DraftName})
	if err != nil {
		t.Fatal(err)
	}
	window, sources := 0, 0
	for g := range resolved.Plan.Layout().Shapes {
		window += resolved.Plan.Shape(g).N
		sources += resolved.Plan.Shape(g).M
	}
	clients := make([]*Client, fetches)
	for i := range clients {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		c.Timeout = 10 * time.Second
		t.Cleanup(func() { c.Close() })
		clients[i] = c
	}
	var wg sync.WaitGroup
	received := make([]int, fetches)
	errs := make(chan error, fetches)
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			res, err := c.Fetch(FetchOptions{Doc: corpus.DraftName, Codec: erasure.CodecFountain, Caching: true})
			if err != nil {
				errs <- fmt.Errorf("fetch %d: %w", i, err)
				return
			}
			if !bytes.Equal(res.Body, doc.Body()) || res.Rounds != 1 {
				errs <- fmt.Errorf("fetch %d: %d rounds, body equal %v", i, res.Rounds, bytes.Equal(res.Body, doc.Body()))
			}
			received[i] = res.PacketsReceived
		}(i, c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	total := 0
	for _, n := range received {
		total += n
	}
	out := reg.Snapshot().Counters["serve.frames_out"]
	cooks := srv.FrameStats().Cooks
	t.Logf("%d fetches: %d frames out, %d cooked, window %d", fetches, out, cooks, window)
	if out < int64(total) || total < fetches*sources {
		t.Errorf("serve.frames_out %d, clients read %d: want every stream's frames, at least %d", out, total, fetches*sources)
	}
	if cooks == 0 || cooks > int64(window) {
		t.Errorf("%d frames cooked for %d fetches, want at most one window of %d", cooks, fetches, window)
	}
}

// TestFountainBroadcastChurn is the -race stress of a fan-out served by
// private streams: fetches of one plan join mid-stream and leave early
// (StopAtIC), while every stream reads the frames the others cooked into
// the shared frame cache.
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
				// Stagger joins so later waves start mid-stream.
				time.Sleep(time.Duration(wave*15+i) * time.Millisecond) // join-time stagger
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
					Caching:   true,
					MaxRounds: 20,
				}
				if i%3 == 0 {
					opts.StopAtIC = 0.2 // early leaver: stops mid-stream
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
	admitter := &countingAdmitter{}
	policy := ChaosPolicy{Seed: 9, KillAfterMin: 5000, KillAfterMax: 8000, MaxKills: 2}
	client, chaos := startChaosServer(t, ServerOptions{Admission: admitter}, policy)
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
	// The server must have admitted a resumed stream — a request with a
	// non-empty Have list — and honoured it: the resume sent no packet the
	// client already held.
	if admitter.resumes.Load() == 0 {
		t.Error("no server stream saw a non-empty Have list; resume did not carry fountain seqs")
	}
	if res.RefetchedPackets != 0 {
		t.Errorf("%d packets refetched after the resume", res.RefetchedPackets)
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
		client, chaos := startChaosServer(t, ServerOptions{InjectorFactory: oneChannel(NewModelInjector(model))}, policy)
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
	// Fountain Have lists hold packed (gen, seq) pairs; gen>0 packs above
	// 2^32 and must round-trip the control channel exactly.
	req := Request{Op: "fetch", Have: []int{packet.PackSeq(0, 3), packet.PackSeq(2, 7)}}
	got, err := readReq(bufio.NewReader(bytes.NewReader(record(t, req))))
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

// replay reads back one fetch's traffic: the headers' Sending summed over
// rounds, the frames and frame bytes the socket delivered, and the frames
// the client granted.
func (c *countingConn) replay(t *testing.T) (sending, frames, frameBytes, granted int) {
	t.Helper()
	r := bufio.NewReader(bytes.NewReader(c.in.Bytes()))
	for {
		resp, err := ReadResponse(r)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil || !resp.OK {
			t.Fatalf("header: %+v, %v", resp, err)
		}
		sending += resp.Sending
		for {
			frame, err := ReadFrame(r)
			if err != nil {
				t.Fatalf("frame %d: %v", frames, err)
			}
			if frame == nil {
				break
			}
			frames++
			frameBytes += len(frame)
		}
	}
	up := bufio.NewReader(bytes.NewReader(c.out.Bytes()))
	for {
		req, err := readReq(up)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if req.Op == "more" {
			granted += req.Frames
		}
	}
	return sending, frames, frameBytes, granted
}

// TestFountainDrainBoundedByCredit pins what a fetch puts on the wire
// after the client has what it needs. A private fountain stream sends its
// window — the frames a fixed-rate round of the same γ sends — and then
// only what the client grants, so the server's frames per fetch are at
// most the header's Sending plus the grants. On a clean channel the window
// covers the document and the client grants nothing; the stream is then
// Sending frames long, or shorter when the client's stop lands before the
// server has written the whole window. A fixed-rate round sends at most
// its Sending and is never granted anything.
func TestFountainDrainBoundedByCredit(t *testing.T) {
	doc, err := corpus.Load(corpus.DraftName)
	if err != nil {
		t.Fatal(err)
	}
	const fetches = 10
	for _, codec := range []erasure.CodecID{erasure.CodecFountain, erasure.CodecVandermonde} {
		for _, alpha := range []float64{0, 0.2, 0.4} {
			t.Run(fmt.Sprintf("%s/alpha=%.1f", codec, alpha), func(t *testing.T) {
				reg := obs.NewRegistry()
				opts := ServerOptions{Metrics: reg}
				var conns atomic.Int64
				if alpha > 0 {
					// A channel realisation of its own per connection, the
					// same ones every run.
					opts.InjectorFactory = func() FaultInjector {
						model, err := channel.NewBernoulli(alpha, conns.Add(1))
						if err != nil {
							t.Error(err)
						}
						return NewModelInjector(model)
					}
				}
				addr := startServerAddr(t, opts)
				framesOut := reg.Counter("serve.frames_out")
				var read, used int
				for i := 0; i < fetches; i++ {
					raw, err := net.Dial("tcp", addr)
					if err != nil {
						t.Fatal(err)
					}
					wire := &countingConn{Conn: raw}
					client := NewClient(wire)
					client.Timeout = 10 * time.Second
					before := framesOut.Value()
					res, err := client.Fetch(FetchOptions{Doc: corpus.DraftName, Codec: codec, Caching: true, MaxRounds: 10})
					client.Close()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(res.Body, doc.Body()) {
						t.Fatal("body differs from the source document")
					}
					out := int(framesOut.Value() - before)
					sending, frames, frameBytes, granted := wire.replay(t)
					if frames != out {
						t.Fatalf("the server counted %d frames out, the socket delivered %d", out, frames)
					}
					switch {
					case codec == erasure.CodecVandermonde && (out > sending || granted != 0):
						t.Fatalf("fixed-rate fetch: %d frames out against Sending %d, %d granted", out, sending, granted)
					case out > sending+granted:
						t.Fatalf("fetch %d: %d frames out, past Sending %d + %d granted", i, out, sending, granted)
					case alpha == 0 && granted != 0:
						t.Fatalf("clean fetch %d: %d frames granted on top of Sending %d", i, granted, sending)
					case codec == erasure.CodecFountain && res.Rounds != 1:
						t.Fatalf("fountain fetch %d took %d rounds", i, res.Rounds)
					}
					read += frameBytes
					used += res.BytesReceived
				}
				if more := reg.Counter("serve.requests_more").Value(); codec == erasure.CodecVandermonde && more != 0 {
					t.Errorf("fixed-rate fetches drew %d grants", more)
				}
				t.Logf("%d fetches: %.1f KB of frames read, %.1f KB used (%.0f %% drained)",
					fetches, float64(read)/1e3/fetches, float64(used)/1e3/fetches, 100*float64(read-used)/float64(read))
			})
		}
	}
}

// TestGrantRule pins the client's credit rule on a metered stream.
func TestGrantRule(t *testing.T) {
	for _, tc := range []struct {
		name                            string
		owed, needed, streamed, corrupt int
		want                            int
	}{
		{"window covers a clean fetch", 68, 45, 0, 0, 0},
		{"nothing needed", 0, 0, 60, 30, 0},
		{"early corruption is noise", 66, 44, 2, 2, 0},
		{"short on a clean channel before the rate counts", 10, 20, 5, 2, 15},
		{"owed covers the need at the rate seen", 20, 12, 55, 22, 0},
		{"short at the rate seen: the shortfall and a quarter again", 12, 12, 55, 22, 13},
		{"every frame corrupt so far", 3, 2, 4, 4, 7},
	} {
		if got := grant(tc.owed, tc.needed, tc.streamed, tc.corrupt); got != tc.want {
			t.Errorf("%s: grant(%d, %d, %d, %d) = %d, want %d", tc.name, tc.owed, tc.needed, tc.streamed, tc.corrupt, got, tc.want)
		}
	}
}
