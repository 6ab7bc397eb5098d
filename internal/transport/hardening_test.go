package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"mobweb/internal/channel"
	"mobweb/internal/corpus"
	"mobweb/internal/search"
	"mobweb/internal/textproc"
)

func TestClientSurvivesServerCrashMidFetch(t *testing.T) {
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
	// Pace packets so the crash lands mid-stream.
	srv, err := NewServer(engine, ServerOptions{PacketDelay: 5 * time.Millisecond})
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

	client, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.Timeout = 2 * time.Second

	fetchErr := make(chan error, 1)
	go func() {
		_, err := client.Fetch(FetchOptions{Doc: corpus.DraftName})
		fetchErr <- err
	}()
	time.Sleep(50 * time.Millisecond) // a few packets in
	srv.Close()
	<-serveDone

	select {
	case err := <-fetchErr:
		if err == nil {
			t.Error("fetch succeeded despite server crash mid-stream")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fetch hung after server crash")
	}
}

func TestClientTimesOutOnSilentServer(t *testing.T) {
	// A listener that accepts and then never speaks.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		accepted <- conn
	}()
	client, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.Timeout = 200 * time.Millisecond

	start := time.Now()
	_, err = client.Search("anything", 3)
	if err == nil {
		t.Fatal("search against a silent server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("timeout took %v, want ~200ms", elapsed)
	}
	if conn := <-accepted; conn != nil {
		conn.Close()
	}
}

// TestClientBoundsResponseLine: a peer that answers a fetch with
// 2 × MaxControlLine bytes and no newline (a misbehaving replica, or
// packet bytes where the header should be after framing was lost) gets
// ErrBadResponse — a protocol error, so no redial — and the client stops
// reading at the bound instead of buffering whatever arrives.
func TestClientBoundsResponseLine(t *testing.T) {
	cliEnd, srvEnd := net.Pipe()
	client := NewClient(cliEnd)
	client.Timeout = 10 * time.Second
	redials := 0
	client.SetRedial(func() (net.Conn, error) {
		redials++
		return nil, errors.New("no second peer")
	})

	// net.Pipe is unbuffered: the peer's Write returns only what the
	// client actually read, so `taken` counts the bytes the client took.
	taken := make(chan int, 1)
	go func() {
		defer srvEnd.Close()
		if _, err := bufio.NewReader(srvEnd).ReadBytes('\n'); err != nil {
			taken <- 0
			return
		}
		chunk := bytes.Repeat([]byte{'x'}, 4096)
		total := 0
		for total < 2*MaxControlLine {
			n, err := srvEnd.Write(chunk)
			total += n
			if err != nil {
				break
			}
		}
		taken <- total
	}()

	_, err := client.Fetch(FetchOptions{Doc: corpus.DraftName})
	cliEnd.Close()
	if !errors.Is(err, ErrBadResponse) {
		t.Fatalf("fetch against a newline-less peer: %v, want ErrBadResponse", err)
	}
	if redials != 0 {
		t.Errorf("%d redials after a malformed response, want 0", redials)
	}
	if got := <-taken; got > MaxControlLine+2*4096 {
		t.Errorf("client read %d bytes of one control line, bound is %d", got, MaxControlLine)
	}
}

func TestReadResponse(t *testing.T) {
	long := `{"error":"` + strings.Repeat("e", 3*4096) + `"}` // spans several reader buffers
	for _, tc := range []struct {
		name, in string
		want     error
	}{
		{"short line", `{"error":"x"}` + "\nrest", nil},
		{"line longer than the reader's buffer", long + "\n", nil},
		{"not JSON", "garbage\n", ErrBadResponse},
		{"closed mid-line", `{"error":`, io.EOF},
		{"over the bound", strings.Repeat("x", MaxControlLine+1) + "\n", ErrBadResponse},
	} {
		resp, err := ReadResponse(bufio.NewReader(strings.NewReader(tc.in)))
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		if tc.want == nil && resp.Error == "" {
			t.Errorf("%s: response not decoded", tc.name)
		}
	}
}

func TestReadFrameRejectsOversizedPrefix(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrameSize+1)
	if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(hdr[:]))); err == nil {
		t.Error("oversized frame prefix accepted")
	}
}

func TestWriteFrameRejectsBadSizes(t *testing.T) {
	w := bufio.NewWriter(io.Discard)
	if err := WriteFrame(w, nil); err == nil {
		t.Error("empty frame accepted")
	}
	if err := WriteFrame(w, make([]byte, MaxFrameSize+1)); err == nil {
		t.Error("oversized frame accepted")
	}
}

func TestFrameRoundTripAndEOS(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := WriteFrame(w, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := WriteEndOfStream(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(&buf)
	frame, err := ReadFrame(r)
	if err != nil || !bytes.Equal(frame, []byte{1, 2, 3}) {
		t.Fatalf("ReadFrame = (%v, %v)", frame, err)
	}
	eos, err := ReadFrame(r)
	if err != nil || eos != nil {
		t.Fatalf("end-of-stream = (%v, %v), want (nil, nil)", eos, err)
	}
}

func TestPipelinedFetchesOnOneConnection(t *testing.T) {
	client := startServer(t, ServerOptions{})
	for i := 0; i < 3; i++ {
		res, err := client.Fetch(FetchOptions{Doc: corpus.DraftName})
		if err != nil {
			t.Fatalf("fetch %d: %v", i, err)
		}
		if res.Body == nil {
			t.Fatalf("fetch %d incomplete", i)
		}
	}
	// Interleave search and fetch.
	if _, err := client.Search("mobile", 3); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Fetch(FetchOptions{Doc: "mobile-survey.html"}); err != nil {
		t.Fatal(err)
	}
}

func TestGilbertElliottInjectorLive(t *testing.T) {
	model, err := channel.NewGilbertElliott(0.05, 0.2, 0.02, 0.8, 17)
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
		t.Fatal("fetch failed under bursty corruption")
	}
	if res.PacketsCorrupted == 0 {
		t.Error("burst injector corrupted nothing")
	}
}

func TestServerRejectsMidStreamRequests(t *testing.T) {
	// Sending a new fetch while a stream is in flight is a protocol
	// violation; the server must drop the connection rather than
	// interleave streams.
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
	srv, err := NewServer(engine, ServerOptions{PacketDelay: 2 * time.Millisecond})
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

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteJSONLine(conn, Request{Op: "fetch", Doc: corpus.DraftName}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	// Violate the protocol mid-stream.
	if err := WriteJSONLine(conn, Request{Op: "search", Query: "x"}); err != nil {
		t.Fatal(err)
	}
	// The server must close the connection: reads eventually fail.
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	for {
		if _, err := conn.Read(buf); err != nil {
			return // connection torn down as expected
		}
	}
}
