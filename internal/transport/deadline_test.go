package transport

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mobweb/internal/corpus"
)

// TestStreamOutlastsIdleTimeout is the regression for the idle timer that
// was armed once before a request and never moved: the reader goroutine's
// stale deadline fired IdleTimeout into the stream, closed the control
// channel and cut the server's own stream, which the client then patched
// up with reconnects and extra rounds (5 rounds and 4 reconnects for this
// 45-frame fetch). The timer runs between requests only.
func TestStreamOutlastsIdleTimeout(t *testing.T) {
	doc, err := corpus.Load(corpus.DraftName)
	if err != nil {
		t.Fatal(err)
	}
	client := startServer(t, ServerOptions{IdleTimeout: 100 * time.Millisecond, PacketDelay: 10 * time.Millisecond})
	res, err := client.Fetch(FetchOptions{Doc: corpus.DraftName, Caching: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 || res.Reconnects != 0 {
		t.Errorf("fetch took %d rounds and %d reconnects, want 1 and 0", res.Rounds, res.Reconnects)
	}
	if !bytes.Equal(res.Body, doc.Body()) {
		t.Error("body differs from the source document")
	}
	// Between requests the timer still runs: the idle connection is let go.
	if err := client.conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := client.r.ReadByte(); !errors.Is(err, io.EOF) {
		t.Errorf("idle connection: read returned %v, want the server's close", err)
	}
}

// countingAdmitter admits everything and counts the slots it has out.
type countingAdmitter struct{ held atomic.Int32 }

func (a *countingAdmitter) Admit(bool) (func(), time.Duration, bool) {
	a.held.Add(1)
	return func() { a.held.Add(-1) }, 0, true
}

// TestWriteDeadlineReleasesHandler is the regression for the stream loop
// that never armed a write deadline: a client that stops reading
// mid-stream (net.Pipe has no buffer to hide it) pinned its handler
// goroutine, and the admission slot it held, until Close. Every write now
// runs under the server's write timeout.
func TestWriteDeadlineReleasesHandler(t *testing.T) {
	admitter := &countingAdmitter{}
	srv, err := NewServer(corpusEngine(t), ServerOptions{Admission: admitter})
	if err != nil {
		t.Fatal(err)
	}
	srv.writeTimeout = 100 * time.Millisecond
	baseline := runtime.NumGoroutine()

	clientEnd, serverEnd := net.Pipe()
	defer clientEnd.Close()
	handled := make(chan struct{})
	go func() {
		defer close(handled)
		defer serverEnd.Close()
		srv.handle(serverEnd)
	}()
	if err := WriteJSONLine(clientEnd, Request{Op: "fetch", Doc: corpus.DraftName}); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(clientEnd)
	if resp, err := ReadResponse(r); err != nil || !resp.OK {
		t.Fatalf("fetch header: %+v, %v", resp, err)
	}
	for i := 0; i < 3; i++ {
		if frame, err := ReadFrame(r); err != nil || frame == nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	if held := admitter.held.Load(); held != 1 {
		t.Fatalf("%d admission slots held mid-stream, want 1", held)
	}
	// The client stops reading here.
	select {
	case <-handled:
	case <-time.After(5 * time.Second):
		t.Fatal("handler still blocked on a peer that stopped reading")
	}
	if held := admitter.held.Load(); held != 0 {
		t.Errorf("%d admission slots still held after the handler returned", held)
	}
	settleGoroutines(t, baseline)
}
