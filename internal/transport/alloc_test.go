package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net"
	"strings"
	"testing"

	"mobweb/internal/channel"
	"mobweb/internal/core"
	"mobweb/internal/corpus"
	"mobweb/internal/erasure"
	"mobweb/internal/obs"
)

// fetchAllocs serves the corpus with packets of size bytes and returns
// the heap allocations of one whole dial-fetch-close cycle of the draft
// document — server and client together, as the benchmark counts them —
// and the frames the server put on the wire for it, both averaged over
// runs. Warm-up fetches first cook every frame a fetch can reach (a
// lossy fountain fetch draws as many repairs as its grants ask for, and
// the client's stop can land anywhere in the window), so no cook lands
// inside the measurement.
func fetchAllocs(t *testing.T, size int, opts FetchOptions, alpha float64) (allocs, frames float64) {
	t.Helper()
	reg := obs.NewRegistry()
	sopts := ServerOptions{Defaults: core.Config{PacketSize: size, Gamma: 1}, Metrics: reg}
	if alpha > 0 {
		sopts.InjectorFactory = func() FaultInjector {
			model, err := channel.NewBernoulli(alpha, 7)
			if err != nil {
				t.Fatal(err)
			}
			return NewModelInjector(model)
		}
	}
	srv, err := NewServer(corpusEngine(t), sopts)
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
	defer func() {
		srv.Close()
		<-serveDone
	}()
	opts.Doc = corpus.DraftName
	fetch := func() {
		c, err := Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if res, err := c.Fetch(opts); err != nil || res.Body == nil {
			t.Fatalf("fetch: %v", err)
		}
	}
	for quiet, i := 0, 0; quiet < 5 && i < 200; i++ {
		cooks := srv.FrameStats().Cooks
		fetch()
		if srv.FrameStats().Cooks == cooks {
			quiet++
		} else {
			quiet = 0
		}
	}
	const runs = 20
	out := reg.Counter("serve.frames_out")
	before := out.Value()
	allocs = testing.AllocsPerRun(runs, fetch)
	// AllocsPerRun makes one extra warm-up call.
	return allocs, float64(out.Value()-before) / (runs + 1)
}

// TestFetchAllocationsPerFrame: a frame costs the live fetch path no heap
// allocation — not on the server's write, not on the client's read, parse
// and hold. The draft document is fetched under 256- and 64-byte packets
// (γ = 1, one generation either way), so the second fetch carries about
// four times the frames with the same units, layout and rounds; the
// allocations it adds per added frame must stay near zero.
func TestFetchAllocationsPerFrame(t *testing.T) {
	if testing.Short() {
		t.Skip("dials a loopback server a few hundred times")
	}
	for _, tc := range []struct {
		name  string
		opts  FetchOptions
		alpha float64
	}{
		{"vandermonde clean", FetchOptions{}, 0},
		{"fountain clean", FetchOptions{Codec: erasure.CodecFountain}, 0},
		{"fountain lossy", FetchOptions{Codec: erasure.CodecFountain}, 0.2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bigAllocs, bigFrames := fetchAllocs(t, 256, tc.opts, tc.alpha)
			smallAllocs, smallFrames := fetchAllocs(t, 64, tc.opts, tc.alpha)
			perFrame := (smallAllocs - bigAllocs) / (smallFrames - bigFrames)
			t.Logf("256 B: %.1f allocs over %.1f frames; 64 B: %.1f over %.1f; %.3f per added frame",
				bigAllocs, bigFrames, smallAllocs, smallFrames, perFrame)
			if smallFrames < 3*bigFrames {
				t.Fatalf("64-byte packets sent %.1f frames against %.1f; the comparison needs about 4×", smallFrames, bigFrames)
			}
			if perFrame > 0.1 {
				t.Errorf("%.3f allocations per frame, want none", perFrame)
			}
		})
	}
}

// TestFramingAllocationFree: writing and reading a frame allocate
// nothing — the length prefix lives in the connection's buffers, the frame
// in the caller's scratch.
func TestFramingAllocationFree(t *testing.T) {
	frame := bytes.Repeat([]byte{0xA5}, 260)
	w := bufio.NewWriter(io.Discard)
	if n := testing.AllocsPerRun(100, func() {
		if err := WriteFrame(w, frame); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("WriteFrame allocates %v times, want 0", n)
	}
	frames := make([][]byte, 101)
	for i := range frames {
		frames[i] = frame
	}
	r := bufio.NewReader(bytes.NewReader(frameWire(t, frames)))
	var buf []byte
	if n := testing.AllocsPerRun(100, func() {
		got, err := ReadFrameInto(r, buf)
		if err != nil || !bytes.Equal(got, frame) {
			t.Fatalf("ReadFrameInto = (%d bytes, %v)", len(got), err)
		}
		buf = got
	}); n != 0 {
		t.Errorf("ReadFrameInto allocates %v times, want 0", n)
	}
}

// frameWire frames frames and an end-of-stream marker through a 16-byte
// writer, so prefixes land at every position against its buffer.
func frameWire(t *testing.T, frames [][]byte) []byte {
	t.Helper()
	var wire bytes.Buffer
	w := bufio.NewWriterSize(&wire, 16)
	for _, f := range frames {
		if err := WriteFrame(w, f); err != nil {
			t.Fatal(err)
		}
	}
	if err := WriteEndOfStream(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return wire.Bytes()
}

// TestReadFrameCutAnywhere holds the framing to a reference codec written
// with io.ReadFull and a plain header array: the same bytes on the wire,
// and a stream cut anywhere read up to the same frame and failing with the
// same error — io.EOF at a frame boundary or right after a prefix,
// io.ErrUnexpectedEOF inside either. A 16-byte reader buffer puts every
// frame boundary at a different offset against it.
func TestReadFrameCutAnywhere(t *testing.T) {
	frames := [][]byte{{1, 2, 3}, bytes.Repeat([]byte{7}, 40), {9}}
	var want []byte
	for _, f := range frames {
		want = binary.BigEndian.AppendUint32(want, uint32(len(f)))
		want = append(want, f...)
	}
	want = append(want, 0, 0, 0, 0)
	wire := frameWire(t, frames)
	if !bytes.Equal(wire, want) {
		t.Fatalf("framed %x, want %x", wire, want)
	}
	reference := func(r io.Reader) (n int, err error) {
		for {
			var hdr [4]byte
			if _, err := io.ReadFull(r, hdr[:]); err != nil {
				return n, err
			}
			size := binary.BigEndian.Uint32(hdr[:])
			if size == 0 {
				return n, nil
			}
			if _, err := io.ReadFull(r, make([]byte, size)); err != nil {
				return n, err
			}
			n++
		}
	}
	for cut := 0; cut <= len(wire); cut++ {
		wantN, wantErr := reference(bytes.NewReader(wire[:cut]))
		r := bufio.NewReaderSize(bytes.NewReader(wire[:cut]), 16)
		n := 0
		var err error
		for {
			var frame []byte
			if frame, err = ReadFrame(r); err != nil || frame == nil {
				break
			}
			if !bytes.Equal(frame, frames[n]) {
				t.Fatalf("cut at %d: frame %d is %x, want %x", cut, n, frame, frames[n])
			}
			n++
		}
		if n != wantN || err != wantErr {
			t.Fatalf("cut at %d: read %d frames then %v, reference %d then %v", cut, n, err, wantN, wantErr)
		}
	}
}

// TestClientHandsBuffersBack: a client holds its connection buffers only
// while an operation runs, and keeps them past its end only when they hold
// bytes of the connection's next read.
func TestClientHandsBuffersBack(t *testing.T) {
	client := startServer(t, ServerOptions{})
	if _, err := client.Fetch(FetchOptions{Doc: corpus.DraftName}); err != nil {
		t.Fatal(err)
	}
	if client.r != nil || client.w != nil {
		t.Error("client kept its buffers after a fetch")
	}
	if _, err := client.Search("mobile", 3); err != nil {
		t.Fatal(err)
	}
	if client.r != nil || client.w != nil {
		t.Error("client kept its buffers after a search")
	}

	// A peer whose reply runs past the response line: the surplus is the
	// next read's, so the reader must survive the operation with it.
	cliEnd, srvEnd := net.Pipe()
	defer srvEnd.Close()
	go func() {
		if _, err := bufio.NewReader(srvEnd).ReadBytes('\n'); err == nil {
			srvEnd.Write([]byte("{\"ok\":true}\n{\"ok\":true,\"hits\":[{\"name\":\"x\"}]}\n"))
		}
	}()
	peer := NewClient(cliEnd)
	defer peer.Close()
	if _, err := peer.Search("q", 1); err != nil {
		t.Fatal(err)
	}
	if peer.r == nil || peer.r.Buffered() == 0 {
		t.Fatal("reader with unread bytes was handed back")
	}
	resp, _, err := peer.readResponse(context.Background())
	if err != nil || len(resp.Hits) != 1 || resp.Hits[0].Name != "x" {
		t.Fatalf("next read = (%+v, %v), want the surplus line", resp, err)
	}
}

// TestRequestReaderLines: the server's control reader delivers each line,
// a last one cut short by the end of the connection included, and stops
// at a line that does not parse or outgrows MaxControlLine.
func TestRequestReaderLines(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   string
		want []string // ops delivered, in order
	}{
		{"lines", "{\"op\":\"fetch\"}\n{\"op\":\"stop\"}\n", []string{"fetch", "stop"}},
		{"last line without newline", "{\"op\":\"fetch\"}\n{\"op\":\"stop\"}", []string{"fetch", "stop"}},
		{"garbage ends the stream", "{\"op\":\"fetch\"}\nnot json\n{\"op\":\"stop\"}\n", []string{"fetch"}},
		{"line over the bound", "{\"op\":\"fetch\"}\n" + strings.Repeat(" ", MaxControlLine) + "{\"op\":\"stop\"}\n", []string{"fetch"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cliEnd, srvEnd := net.Pipe()
			go func() {
				io.WriteString(cliEnd, tc.in)
				cliEnd.Close()
			}()
			done := make(chan struct{})
			defer close(done)
			var got []string
			for req := range ReadRequests(srvEnd, done) {
				got = append(got, req.Op)
			}
			srvEnd.Close()
			if strings.Join(got, ",") != strings.Join(tc.want, ",") {
				t.Errorf("delivered %v, want %v", got, tc.want)
			}
		})
	}
}
