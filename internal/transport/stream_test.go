package transport

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"mobweb/internal/channel"
	"mobweb/internal/core"
	"mobweb/internal/corpus"
	"mobweb/internal/erasure"
	"mobweb/internal/packet"
	"mobweb/internal/planner"
)

// The tables in this file cover the stream loop once for every source,
// in place of one copy of each check per loop: what goes on the air
// (TestStreamEmitsReferenceSequence), what comes out the other end
// (TestFetchMatrixByteIdentical), and what control requests do to a
// stream (TestControlOps).

// recorder is a fault injector that notes every frame the loop offered it
// and whether it went on the air, then defers to the wrapped injector. A
// nil inner injector drops a seeded third of the frames — not every third
// one, which would starve whole generations of a round-robin whose period
// divides by three.
type recorder struct {
	mu    sync.Mutex
	inner FaultInjector
	drop  *rand.Rand
	seqs  []int
	sent  []bool
}

func (r *recorder) Inject(frame []byte, seq int) ([]byte, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	out, send := frame, true
	if r.inner == nil {
		send = r.drop.Intn(3) != 0
	} else {
		out, send = r.inner.Inject(frame, seq)
	}
	r.seqs = append(r.seqs, seq)
	r.sent = append(r.sent, send)
	return out, send
}

// streamCases is the source × frame cache × channel grid both stream
// tables walk.
type streamCase struct {
	source  string // vandermonde, fountain
	cached  bool
	channel string // clean, bernoulli, drop
}

func (c streamCase) String() string {
	cache := "cached"
	if !c.cached {
		cache = "uncached"
	}
	return fmt.Sprintf("%s/%s/%s", c.source, cache, c.channel)
}

func streamCases() []streamCase {
	var out []streamCase
	for _, source := range []string{"vandermonde", "fountain"} {
		for _, cached := range []bool{true, false} {
			for _, ch := range []string{"clean", "bernoulli", "drop"} {
				out = append(out, streamCase{source, cached, ch})
			}
		}
	}
	return out
}

// serverOptions builds the case's server: small generations so every
// stream crosses generation boundaries, and the case's cache and channel.
// The returned recorder is nil on a clean channel — wrapping NopInjector
// would take the loop off its zero-copy path.
func (c streamCase) serverOptions(t *testing.T) (ServerOptions, *recorder) {
	t.Helper()
	opts := ServerOptions{Defaults: core.Config{MaxGeneration: 8}}
	if !c.cached {
		opts.Planner = corpusPlanner(t, planner.Options{Defaults: opts.Defaults, FrameCacheBytes: -1})
	}
	if c.source != "vandermonde" {
		opts.DefaultCodec = erasure.CodecFountain
	}
	var rec *recorder
	switch c.channel {
	case "bernoulli":
		model, err := channel.NewBernoulli(0.2, 11)
		if err != nil {
			t.Fatal(err)
		}
		rec = &recorder{inner: NewModelInjector(model)}
	case "drop":
		rec = &recorder{drop: rand.New(rand.NewSource(5))}
	}
	if rec != nil {
		opts.InjectorFactory = oneChannel(rec)
	}
	return opts, rec
}

// flushSink is the far end of a wire the test drives the loop into: the
// bytes written so far, and a signal per write. Behind a write buffer
// larger than the whole stream, a write is the loop's own flush.
type flushSink struct {
	mu      sync.Mutex
	buf     bytes.Buffer
	flushed chan struct{}
}

func newFlushSink() *flushSink { return &flushSink{flushed: make(chan struct{}, 64)} }

func (s *flushSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	n, err := s.buf.Write(p)
	s.mu.Unlock()
	select {
	case s.flushed <- struct{}{}:
	default: // a self-paced source flushes every frame, and nobody is counting
	}
	return n, err
}

// frames counts the whole frames written so far.
func (s *flushSink) frames(t *testing.T) int {
	t.Helper()
	s.mu.Lock()
	r := bufio.NewReader(bytes.NewReader(s.buf.Bytes()))
	s.mu.Unlock()
	n := 0
	for {
		frame, err := ReadFrame(r)
		if errors.Is(err, io.EOF) {
			return n
		}
		if err != nil || frame == nil {
			t.Fatalf("the loop wrote something other than frames: %v", err)
		}
		n++
	}
}

// onAir counts the frames a recorder let through and the ones it dropped.
func (r *recorder) onAir() (sent, dropped int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ok := range r.sent {
		if ok {
			sent++
		} else {
			dropped++
		}
	}
	return sent, dropped
}

// TestStreamEmitsReferenceSequence drives the stream loop directly and
// checks the frames on the wire against the plan's own Frame /
// FountainFrame: the right frames, in the source's order, minus what the
// request's Have and DoneGens exclude, each byte for byte (or detectably
// corrupted, where the channel corrupts). The private fountain stream is
// metered: it pauses after exactly its window, whatever the injector
// dropped, and resumes on each grant; the other sources run without
// feedback to their end.
func TestStreamEmitsReferenceSequence(t *testing.T) {
	for _, tc := range streamCases() {
		tc := tc
		t.Run(tc.String(), func(t *testing.T) {
			opts, rec := tc.serverOptions(t)
			srv, err := NewServer(corpusEngine(t), opts)
			if err != nil {
				t.Fatal(err)
			}
			resolved, err := srv.local.planner.ResolveFrames(planner.Request{Doc: corpus.DraftName})
			if err != nil {
				t.Fatal(err)
			}
			plan := resolved.Plan
			const seed = 42
			// One held packet and one decoded generation, in both seq
			// spaces: seq 1 is cooked row 1 and fountain symbol (0, 1).
			req := Request{Op: "fetch", Doc: corpus.DraftName, Have: []int{1, packet.PackSeq(2, 3)}, DoneGens: []int{1}}
			have := map[int]bool{1: true, packet.PackSeq(2, 3): true}

			layout := plan.Layout()
			var src FrameSource
			window := 0 // unmetered
			ref := plan.Frame
			var want []int // the exact attempted sequence
			if tc.source == "vandermonde" {
				src, _ = newRowSource(resolved, layout, req, false)
				for seq := 0; seq < plan.N(); seq++ {
					if g, _, _ := layout.SplitSeq(seq); !have[seq] && g != 1 {
						want = append(want, seq)
					}
				}
			} else {
				layout = plan.FountainLayout(seed)
				ref = func(packed int) ([]byte, error) {
					g, s := packet.UnpackSeq(packed)
					return plan.FountainFrame(seed, g, s)
				}
				fs := newFountainSource(resolved, seed, req, layout, false)
				src, window = fs, fs.window
				// The window is a fixed-rate round's: every live
				// generation's N, less the two held packets.
				round := -2
				for g, shape := range plan.Layout().Shapes {
					if g != 1 {
						round += shape.N
					}
				}
				if window != round {
					t.Fatalf("window %d frames, want %d", window, round)
				}
				sent := make([]int, len(layout.Shapes))
				for k, active := 0, true; active; k++ {
					active = false
					for g, shape := range layout.Shapes {
						if g == 1 || sent[g] >= fountainOvershootCap(shape.M) {
							continue
						}
						active = true
						if packed := packet.PackSeq(g, k); !have[packed] {
							sent[g]++
							want = append(want, packed)
						}
					}
				}
			}

			sink := newFlushSink()
			w := bufio.NewWriterSize(sink, 1<<20)
			injector := FaultInjector(NopInjector{})
			if rec != nil {
				injector = rec
			}
			requests := make(chan Request)
			type pumped struct {
				sent int
				err  error
			}
			done := make(chan pumped, 1)
			go func() {
				sent, err := srv.pump(w, src, requests, injector, window, nil)
				done <- pumped{sent, err}
			}()
			if window > 0 {
				// Each pause flushes exactly the credit granted so far:
				// the window, then the window and a small grant. A frame
				// the injector dropped is not charged.
				const small = 5
				for _, credit := range []int{window, window + small} {
					<-sink.flushed
					if n := sink.frames(t); n != credit {
						t.Fatalf("paused after %d frames on the wire, want %d", n, credit)
					}
					if rec != nil {
						if onAir, dropped := rec.onAir(); onAir != credit || (tc.channel == "drop" && dropped == 0) {
							t.Fatalf("injector passed %d frames and dropped %d by the pause, want %d passed", onAir, dropped, credit)
						}
					}
					grant := small
					if credit > window {
						grant = 1 << 20 // the rest: the source runs to its caps
					}
					select {
					case requests <- Request{Op: "more", Frames: grant}:
					case p := <-done:
						t.Fatalf("the loop ended (%d frames, %v) instead of waiting for a grant", p.sent, p.err)
					}
				}
			}
			p := <-done
			sent, err := p.sent, p.err
			if err != nil || w.Flush() != nil {
				t.Fatal(err)
			}
			wire := &sink.buf
			if retains := srv.FrameStats().Entries > 0; retains != tc.cached {
				t.Fatalf("frame cache retains frames = %v, want %v", retains, tc.cached)
			}

			// attempted: every frame the source handed to the loop; onAir
			// marks the ones that were written.
			var frames [][]byte
			for r := bufio.NewReader(wire); ; {
				frame, err := ReadFrame(r)
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil || frame == nil {
					t.Fatalf("the loop wrote something other than frames: %v", err)
				}
				frames = append(frames, frame)
			}
			var attempted []int
			var onAir []bool
			if rec != nil {
				attempted, onAir = rec.seqs, rec.sent
			} else {
				for _, frame := range frames {
					seq, _, err := layout.ParseFrame(frame)
					if err != nil {
						t.Fatalf("clean channel delivered an unparseable frame: %v", err)
					}
					attempted, onAir = append(attempted, seq), append(onAir, true)
				}
			}

			if fmt.Sprint(attempted) != fmt.Sprint(want) {
				t.Fatalf("attempted sequence\n got %v\nwant %v", attempted, want)
			}

			next := 0
			for i, seq := range attempted {
				if !onAir[i] {
					continue
				}
				if next == len(frames) {
					t.Fatalf("wire ended at frame %d; injector passed more", next)
				}
				frame := frames[next]
				next++
				want, err := ref(seq)
				if err != nil {
					t.Fatal(err)
				}
				if bytes.Equal(frame, want) {
					continue
				}
				_, _, perr := layout.ParseFrame(frame)
				if tc.channel != "bernoulli" || !errors.Is(perr, packet.ErrCorrupt) || len(frame) != len(want) {
					t.Fatalf("frame %d (seq %d) differs from the plan's reference frame", next-1, seq)
				}
			}
			if next != len(frames) {
				t.Fatalf("%d frames on the wire, injector passed %d", len(frames), next)
			}
			if sent != len(frames) {
				t.Fatalf("the loop counted %d frames, %d on the wire", sent, len(frames))
			}
			if tc.channel == "drop" && len(frames) == len(attempted) {
				t.Fatal("drop channel dropped nothing")
			}
		})
	}
}

// TestFetchMatrixByteIdentical runs the real client against the real
// server over the same grid, once as a plain fetch and once as a
// budgeted prefetch followed by the fetch that consumes it: every path
// must hand back the document byte for byte.
func TestFetchMatrixByteIdentical(t *testing.T) {
	doc, err := corpus.Load(corpus.DraftName)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 10
	for _, tc := range streamCases() {
		for _, prefetch := range []bool{false, true} {
			tc, prefetch := tc, prefetch
			name := tc.String() + "/fetch"
			if prefetch {
				name = tc.String() + "/prefetch"
			}
			t.Run(name, func(t *testing.T) {
				sopts, _ := tc.serverOptions(t)
				client := startServer(t, sopts)
				opts := FetchOptions{Doc: corpus.DraftName, Caching: true, MaxRounds: 40}
				var pre PrefetchResult
				if prefetch {
					pre, err = client.Prefetch(opts, budget)
					if err != nil {
						t.Fatal(err)
					}
					if pre.Received != budget {
						t.Fatalf("prefetch received %d frames, want the budget %d", pre.Received, budget)
					}
					if pre.Intact == 0 || pre.Intact > budget {
						t.Fatalf("prefetch stored %d packets from %d frames", pre.Intact, budget)
					}
				}
				res, err := client.Fetch(opts)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(res.Body, doc.Body()) {
					t.Fatal("body differs from the source document")
				}
				if res.StoredPackets != pre.Intact {
					t.Errorf("fetch started from %d stored packets, prefetch stored %d", res.StoredPackets, pre.Intact)
				}
				if tc.source != "vandermonde" && (res.Rounds != 1 || res.Codec != erasure.CodecFountain.String()) {
					t.Errorf("rateless fetch took %d rounds under codec %q", res.Rounds, res.Codec)
				}
			})
		}
	}
}

// rawClient speaks the wire protocol by hand, for the requests a Client
// never sends.
type rawClient struct {
	t    *testing.T
	conn net.Conn
	r    *bufio.Reader
}

func dialRaw(t *testing.T, addr string) *rawClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	return &rawClient{t: t, conn: conn, r: bufio.NewReader(conn)}
}

func (c *rawClient) send(req Request) {
	c.t.Helper()
	if err := writeRecordTo(c.conn, req); err != nil {
		c.t.Fatal(err)
	}
}

func (c *rawClient) response() (Response, error) {
	return ReadResponse(c.r)
}

// frames reads up to n frames (n < 0: to the end-of-stream marker) and
// reports how many it saw and whether the marker arrived.
func (c *rawClient) frames(n int) (seen int, ended bool, err error) {
	for n < 0 || seen < n {
		frame, err := ReadFrame(c.r)
		if err != nil {
			return seen, false, err
		}
		if frame == nil {
			return seen, true, nil
		}
		seen++
	}
	return seen, false, nil
}

// TestControlOps pins what each control request does to the server during
// a stream and between streams; the shard package runs the same table
// through a front.
func TestControlOps(t *testing.T) {
	for _, tc := range []struct {
		name   string
		codec  string
		during bool
		op     Request // Op "" closes the connection instead
		want   string  // ends, continues, closed, ignored, refused
	}{
		{"stop during fixed-rate", "vandermonde", true, Request{Op: "stop"}, "ends"},
		{"stop during fountain", "fountain", true, Request{Op: "stop"}, "ends"},
		{"stopgen during fountain", "fountain", true, Request{Op: "stopgen", Gen: 0}, "continues"},
		{"stopgen during fixed-rate", "vandermonde", true, Request{Op: "stopgen", Gen: 0}, "closed"},
		{"more during fountain", "fountain", true, Request{Op: "more", Frames: 5}, "continues"},
		{"more during fixed-rate", "vandermonde", true, Request{Op: "more", Frames: 5}, "closed"},
		{"empty more during fountain", "fountain", true, Request{Op: "more"}, "closed"},
		{"search during fixed-rate", "vandermonde", true, Request{Op: "search", Query: "x"}, "closed"},
		{"fetch during fountain", "fountain", true, Request{Op: "fetch", Doc: corpus.DraftName}, "closed"},
		{"close during fountain", "fountain", true, Request{}, "closed"},
		{"stop between", "vandermonde", false, Request{Op: "stop"}, "ignored"},
		{"stopgen between", "fountain", false, Request{Op: "stopgen", Gen: 1}, "ignored"},
		{"more between", "fountain", false, Request{Op: "more", Frames: 5}, "ignored"},
		{"unknown op between", "vandermonde", false, Request{Op: "bogus"}, "refused"},
		{"close between", "vandermonde", false, Request{}, "closed"},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			client := startServer(t, ServerOptions{
				Defaults:    core.Config{MaxGeneration: 8},
				PacketDelay: time.Millisecond,
			})
			checkControlOp(t, client.conn.RemoteAddr().String(), tc.codec, tc.during, tc.op, tc.want)
		})
	}
}

// checkControlOp runs one control-op case against addr.
func checkControlOp(t *testing.T, addr, codec string, during bool, op Request, want string) {
	t.Helper()
	c := dialRaw(t, addr)
	c.send(Request{Op: "fetch", Doc: corpus.DraftName, Codec: codec})
	resp, err := c.response()
	if err != nil || !resp.OK {
		t.Fatalf("fetch header: %+v, %v", resp, err)
	}
	if during {
		if _, _, err := c.frames(3); err != nil {
			t.Fatal(err)
		}
	} else {
		c.send(Request{Op: "stop"})
		if _, ended, err := c.frames(-1); err != nil || !ended {
			t.Fatalf("stream did not end cleanly: %v", err)
		}
	}
	if op.Op == "" {
		// The server must let go of a vanished client: Close (in the
		// test's cleanup) waits for every handler to return.
		c.conn.Close()
		return
	}
	c.send(op)
	switch want {
	case "ends":
		if _, ended, err := c.frames(-1); err != nil || !ended {
			t.Fatalf("stream did not end after %q: %v", op.Op, err)
		}
	case "continues":
		if n, ended, err := c.frames(20); err != nil || ended || n != 20 {
			t.Fatalf("stream stopped after %q: %d frames, ended=%v, %v", op.Op, n, ended, err)
		}
		c.send(Request{Op: "stop"})
		if _, ended, err := c.frames(-1); err != nil || !ended {
			t.Fatalf("stream did not end cleanly: %v", err)
		}
	case "closed":
		if _, ended, err := c.frames(-1); err == nil && ended {
			t.Fatalf("%q mid-stream was tolerated", op.Op)
		}
		return
	case "refused":
		if resp, err := c.response(); err != nil || resp.OK || resp.Error == "" {
			t.Fatalf("%q between streams: %+v, %v", op.Op, resp, err)
		}
	case "ignored":
	}
	// Whatever happened, the connection is still in step: the next
	// request gets its own response, not a stray line.
	c.send(Request{Op: "search", Query: "mobile web"})
	if resp, err := c.response(); err != nil || !resp.OK || len(resp.Hits) == 0 {
		t.Fatalf("search after %q: %+v, %v", op.Op, resp, err)
	}
}

// TestClearPrefixServesEitherCodec: a clear-prefix tier streams only each
// generation's first M packets, which under both codecs are its raw
// packets, and serves the codec the client asked for. The header's Sending
// is every frame of the round — the unheld source packets — no frame past
// a generation's sources reaches the wire, and the body comes back byte
// for byte: in one round on a clean channel, in more on a lossy one.
func TestClearPrefixServesEitherCodec(t *testing.T) {
	doc, err := corpus.Load(corpus.DraftName)
	if err != nil {
		t.Fatal(err)
	}
	for _, codec := range []erasure.CodecID{erasure.CodecVandermonde, erasure.CodecFountain} {
		for _, alpha := range []float64{0, 0.2} {
			t.Run(fmt.Sprintf("%v/alpha=%g", codec, alpha), func(t *testing.T) {
				model, err := channel.NewBernoulli(alpha, 7)
				if err != nil {
					t.Fatal(err)
				}
				rec := &recorder{inner: NewModelInjector(model)}
				client, srv := startServerHandle(t, ServerOptions{
					Capability:      NewCapabilityState(CapClearPrefixOnly),
					InjectorFactory: oneChannel(rec),
				})
				opts := FetchOptions{Doc: corpus.DraftName, Codec: codec, Caching: true, MaxRounds: 20}
				layout, err := srv.Layout(opts)
				if err != nil {
					t.Fatal(err)
				}
				if layout.Codec != codec {
					t.Fatalf("clear-prefix layout names %v, asked for %v", layout.Codec, codec)
				}
				sources := 0
				for _, shape := range layout.Shapes {
					sources += shape.M
				}

				// One round by hand, holding one source packet.
				held, _ := layout.WireSeq(0, 1)
				raw := dialRaw(t, client.conn.RemoteAddr().String())
				req := opts.request()
				req.Have, req.Seed = []int{held}, layout.Seed
				raw.send(req)
				hdr, err := raw.response()
				if err != nil || !hdr.OK {
					t.Fatalf("fetch header: %+v, %v", hdr, err)
				}
				if hdr.Sending != sources-1 {
					t.Fatalf("header sends %d frames, want the %d unheld source packets", hdr.Sending, sources-1)
				}
				if n, _, err := raw.frames(hdr.Sending); err != nil || n != hdr.Sending {
					t.Fatalf("read %d of %d frames: %v", n, hdr.Sending, err)
				}
				if codec == erasure.CodecFountain {
					raw.send(Request{Op: "more", Frames: 1 << 20})
				}
				if n, ended, err := raw.frames(-1); err != nil || n != 0 || !ended {
					t.Fatalf("%d frames past Sending, end marker %v: %v", n, ended, err)
				}
				rec.mu.Lock()
				for _, seq := range rec.seqs {
					if seq == held {
						t.Errorf("held packet %d sent", held)
					}
				}
				rec.mu.Unlock()

				res, err := client.Fetch(opts)
				if err != nil {
					t.Fatal(err)
				}
				if res.Codec != codec.String() || !bytes.Equal(res.Body, doc.Body()) {
					t.Fatalf("fetch under %q: body equal %v", res.Codec, bytes.Equal(res.Body, doc.Body()))
				}
				if alpha == 0 && (res.Rounds != 1 || res.PacketsReceived != sources) {
					t.Errorf("clean channel: %d rounds, %d frames; want 1 round of the %d source packets", res.Rounds, res.PacketsReceived, sources)
				}
				rec.mu.Lock()
				defer rec.mu.Unlock()
				for _, seq := range rec.seqs {
					if !layout.IsClear(seq) {
						g, local, _ := layout.SplitSeq(seq)
						t.Fatalf("frame (gen %d, local seq %d) past the clear prefix reached the wire", g, local)
					}
				}
				t.Logf("%d rounds, %d frames", res.Rounds, res.PacketsReceived)
			})
		}
	}
}
