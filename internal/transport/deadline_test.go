package transport

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mobweb/internal/corpus"
	"mobweb/internal/obs"
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
	if _, err := client.conn.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Errorf("idle connection: read returned %v, want the server's close", err)
	}
}

// countingAdmitter admits everything and counts the slots it has out and
// the resumed streams (a request with a Have list) it has admitted.
type countingAdmitter struct{ held, resumes atomic.Int32 }

func (a *countingAdmitter) Admit(resume bool) (func(), time.Duration, bool) {
	a.held.Add(1)
	if resume {
		a.resumes.Add(1)
	}
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
	if err := writeRecordTo(clientEnd, Request{Op: "fetch", Doc: corpus.DraftName}); err != nil {
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

// poisonWatch is a connection that reports the read deadline armInterrupt
// poisons it with, and counts the reads issued after that.
type poisonWatch struct {
	net.Conn
	poisoned  chan struct{}
	readsPast atomic.Int32
}

func (c *poisonWatch) SetReadDeadline(d time.Time) error {
	if !d.IsZero() && d.Before(time.Now()) {
		select {
		case <-c.poisoned:
		default:
			close(c.poisoned)
		}
	}
	return c.Conn.SetReadDeadline(d)
}

func (c *poisonWatch) Read(p []byte) (int, error) {
	select {
	case <-c.poisoned:
		c.readsPast.Add(1)
	default:
	}
	return c.Conn.Read(p)
}

// TestCancelBetweenReadsIsNotOverwritten is the regression for the read
// loop that armed each read's deadline without looking at the context: a
// cancellation that landed between two reads poisoned the deadline, the
// next read overwrote the poison with now + Timeout, and the fetch (and,
// behind the HTTP gateway, a departed browser's admission slot) outlived
// its context by the whole Timeout. The context is cancelled from
// OnProgress — between reads by construction — and the callback returns
// only once the poison has landed, the losing order of the old race.
func TestCancelBetweenReadsIsNotOverwritten(t *testing.T) {
	srv, err := NewServer(corpusEngine(t), ServerOptions{PacketDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	near, far := net.Pipe()
	if err := srv.ServeConn(far); err != nil {
		t.Fatal(err)
	}
	conn := &poisonWatch{Conn: near, poisoned: make(chan struct{})}
	client := NewClient(conn)
	defer client.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = client.FetchContext(ctx, FetchOptions{Doc: corpus.DraftName, Caching: true, OnProgress: func(Progress) {
		cancel()
		<-conn.poisoned
	}})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("fetch returned %v, want context.Canceled", err)
	}
	if n := conn.readsPast.Load(); n != 0 {
		t.Errorf("%d reads issued after the cancellation had poisoned the deadline", n)
	}
}

// TestCancelledFetchOpensNoRound: a fetch whose context is done before a
// round would open opens none — neither the first round of a fetch called
// with a cancelled context nor the round after a redial the cancellation
// raced. The round count and the trace show only the rounds that ran.
func TestCancelledFetchOpensNoRound(t *testing.T) {
	check := func(t *testing.T, res *FetchResult, err error, tr *obs.Trace, rounds int) {
		t.Helper()
		starts, ends := 0, 0
		for _, e := range tr.Events() {
			switch e.Type {
			case obs.EventRoundStart:
				starts++
			case obs.EventRoundEnd:
				ends++
			}
		}
		if !errors.Is(err, context.Canceled) || res == nil || res.Rounds != rounds || starts != rounds || ends != rounds {
			t.Errorf("fetch returned %v with %+v, %d round starts and %d round ends; want context.Canceled and %d of each",
				err, res, starts, ends, rounds)
		}
	}
	t.Run("before the first round", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		tr := obs.NewTrace(0)
		res, err := startServer(t, ServerOptions{}).FetchContext(ctx, FetchOptions{Doc: corpus.DraftName, Caching: true, Trace: tr})
		check(t, res, err, tr, 0)
	})
	t.Run("after a redial", func(t *testing.T) {
		addr := startServerAddr(t, ServerOptions{})
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		client := droppingPeer(t)
		client.SetRedial(func() (net.Conn, error) {
			cancel()
			return net.Dial("tcp", addr)
		})
		tr := obs.NewTrace(0)
		res, err := client.FetchContext(ctx, FetchOptions{Doc: corpus.DraftName, Caching: true, Trace: tr})
		check(t, res, err, tr, 1)
	})
}

// TestServeConn: a connection handed to ServeConn is served like an
// accepted one, Close reaps it, and after Close it is refused.
func TestServeConn(t *testing.T) {
	baseline := runtime.NumGoroutine()
	reg := obs.NewRegistry()
	srv, err := NewServer(corpusEngine(t), ServerOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	near, far := net.Pipe()
	if err := srv.ServeConn(far); err != nil {
		t.Fatal(err)
	}
	client := NewClient(near)
	res, err := client.Fetch(FetchOptions{Doc: corpus.DraftName, Caching: true})
	if err != nil || res.Body == nil {
		t.Fatalf("fetch over a pipe: %v", err)
	}
	if got := reg.Snapshot().Gauges["serve.conns_active"]; got != 1 {
		t.Errorf("serve.conns_active = %d with the pipe open, want 1", got)
	}
	// The idle connection is in the live set: Close ends its handler.
	srv.Close()
	if got := reg.Snapshot().Gauges["serve.conns_active"]; got != 0 {
		t.Errorf("serve.conns_active = %d after Close, want 0", got)
	}
	if _, err := client.Search("mobile", 1); err == nil {
		t.Error("search succeeded over a connection Close had reaped")
	}
	near, far = net.Pipe()
	defer near.Close()
	if err := srv.ServeConn(far); !errors.Is(err, ErrServerClosed) {
		t.Errorf("ServeConn after Close returned %v, want ErrServerClosed", err)
	}
	if _, err := far.Write([]byte("x")); !errors.Is(err, io.ErrClosedPipe) {
		t.Errorf("refused connection left open: write returned %v", err)
	}
	settleGoroutines(t, baseline)
}

// deadlineCounter is a connection that counts the read deadlines armed
// on it (clearing one is not counted).
type deadlineCounter struct {
	net.Conn
	armed atomic.Int32
}

func (c *deadlineCounter) SetReadDeadline(d time.Time) error {
	if !d.IsZero() {
		c.armed.Add(1)
	}
	return c.Conn.SetReadDeadline(d)
}

// TestReadDeadlinePerSocketRead: the client arms a read deadline for a
// read that needs the socket, not for every frame — a frame already whole
// in its read buffer takes none. A clean fetch's frames arrive a buffer
// at a time, so it arms far fewer deadlines than it reads frames.
func TestReadDeadlinePerSocketRead(t *testing.T) {
	client := startServer(t, ServerOptions{})
	conn, err := net.Dial("tcp", client.conn.RemoteAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	counted := &deadlineCounter{Conn: conn}
	c := NewClient(counted)
	defer c.Close()
	res, err := c.Fetch(FetchOptions{Doc: corpus.DraftName, Caching: true})
	if err != nil || res.Body == nil {
		t.Fatalf("fetch: %v", err)
	}
	armed := int(counted.armed.Load())
	t.Logf("%d frames read under %d read deadlines", res.PacketsReceived, armed)
	if res.PacketsReceived < 40 || 4*armed > res.PacketsReceived {
		t.Errorf("%d frames read under %d read deadlines, want at least 40 frames and a deadline for at most a quarter of them", res.PacketsReceived, armed)
	}
}
