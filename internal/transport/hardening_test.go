package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
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

// TestClientBoundsResponseLine: a peer that answers a fetch with a
// record sized 2 × MaxControlLine and streams its bytes (a misbehaving
// replica, or packet bytes where the header should be after framing was
// lost) gets ErrBadResponse — a protocol error, so no redial — and the
// client refuses it at its size prefix instead of buffering whatever
// arrives.
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
		if _, err := readReq(bufio.NewReader(srvEnd)); err != nil {
			taken <- 0
			return
		}
		chunk := bytes.Repeat([]byte{kindResponse}, 4096)
		copy(chunk, binary.AppendUvarint(nil, 2*MaxControlLine))
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
		t.Fatalf("fetch against an oversized record: %v, want ErrBadResponse", err)
	}
	if redials != 0 {
		t.Errorf("%d redials after a malformed response, want 0", redials)
	}
	if got := <-taken; got > 2*4096 {
		t.Errorf("client took %d bytes of a record it refuses at its size", got)
	}
}

// TestReadResponse holds the response reader to its refusals: a record
// longer than the reader's buffer reads whole, one over the bound, one of
// another kind (a JSON line, garbage), one whose fields do not parse and
// one with bytes over are ErrBadResponse, and a connection that ends
// inside a record is io.ErrUnexpectedEOF.
func TestReadResponse(t *testing.T) {
	short := record(t, Response{Error: "x"})
	long := record(t, Response{Error: strings.Repeat("e", 3*4096)}) // spans several reader buffers
	oversized := binary.AppendUvarint(nil, MaxControlLine+1)
	trailing := append([]byte{4, kindResponse, respOK}, 0, 0)
	for _, tc := range []struct {
		name, in string
		want     error
	}{
		{"short line", string(short) + "rest", nil},
		{"line longer than the reader's buffer", string(long), nil},
		{"not JSON", "garbage\n", ErrBadResponse},
		{"a JSON line", `{"ok":true,"sending":3}` + "\n", ErrBadResponse},
		{"a request record", string(record(t, Request{Op: "stop"})), ErrBadResponse},
		{"fields that do not parse", string([]byte{2, kindResponse, 0x80}), ErrBadResponse},
		{"an unknown field", string([]byte{3, kindResponse, 0x80, 0x40}), ErrBadResponse},
		{"trailing bytes", string(trailing), ErrBadResponse},
		{"closed mid-line", string(long[:100]), io.ErrUnexpectedEOF},
		{"closed mid-prefix", string(long[:1]), io.ErrUnexpectedEOF},
		{"over the bound", string(oversized) + strings.Repeat("x", 64), ErrBadResponse},
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
	if err := writeRecordTo(conn, Request{Op: "fetch", Doc: corpus.DraftName}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	// Violate the protocol mid-stream.
	if err := writeRecordTo(conn, Request{Op: "search", Query: "x"}); err != nil {
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

// TestServerDropsJSONRequest: a peer still speaking JSON control lines is
// refused at its first record — its '{' reads as a size, its '"' as a kind
// no request has — and the connection is dropped without a reply, while
// the server goes on serving everyone else.
func TestServerDropsJSONRequest(t *testing.T) {
	addr := startServerAddr(t, ServerOptions{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, `{"op":"fetch","doc":"`+corpus.DraftName+`"}`+"\n"); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if n, err := conn.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read %d bytes, %v: want the connection dropped", n, err)
	}
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if res, err := client.Fetch(FetchOptions{Doc: corpus.DraftName}); err != nil || res.Body == nil {
		t.Fatalf("fetch after a JSON peer: %v", err)
	}
}
