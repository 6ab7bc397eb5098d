package transport

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"mobweb/internal/corpus"
)

// TestCancelInDrainLeavesClientUsable: a StopAtIC fetch whose context is
// cancelled while it drains after stop ends without reading the end
// marker, with the stream's tail still in flight. The next fetch on the
// same client must not read that tail as its response: it starts on a
// fresh connection and reconstructs the document.
func TestCancelInDrainLeavesClientUsable(t *testing.T) {
	client := startServer(t, ServerOptions{PacketDelay: 5 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	armed := false
	_, err := client.FetchContext(ctx, FetchOptions{
		Doc:      corpus.DraftName,
		Caching:  true,
		StopAtIC: 0.01,
		OnProgress: func(p Progress) {
			if !armed && p.InfoContent >= 0.01 {
				armed = true
				time.AfterFunc(3*time.Millisecond, cancel)
			}
		},
	})
	if err != nil {
		t.Fatalf("skim: %v", err)
	}
	res, err := client.Fetch(FetchOptions{Doc: corpus.DraftName, Caching: true})
	if err != nil || res.Body == nil {
		t.Fatalf("fetch after a skim cancelled in its drain: %v", err)
	}
}

// TestMalformedFrameLeavesClientUsable: a fetch aborted on a malformed
// frame leaves the rest of that stream unread; the next fetch redials
// rather than read it, and succeeds against the real server behind the
// redial.
func TestMalformedFrameLeavesClientUsable(t *testing.T) {
	engine := corpusEngine(t)
	srv, err := NewServer(engine, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fetch := FetchOptions{Doc: corpus.DraftName, Caching: true}
	layout, err := srv.Layout(fetch)
	if err != nil {
		t.Fatal(err)
	}
	real := serveEngine(t, engine, ServerOptions{})

	// The first connection's server answers with a good header, then a
	// frame too short to carry a packet, then a frame and the end marker
	// that the aborted fetch never reads.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		r := bufio.NewReader(conn)
		if _, err := readReq(r); err != nil {
			return
		}
		w := bufio.NewWriter(conn)
		w.Write(record(t, Response{OK: true, Layout: &layout}))
		WriteFrame(w, []byte{0, 1})
		WriteFrame(w, make([]byte, 64))
		WriteEndOfStream(w)
		w.Flush()
		io.Copy(io.Discard, r)
	}()
	client, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.Timeout = 10 * time.Second
	client.SetRedial(func() (net.Conn, error) { return net.Dial("tcp", real) })
	if _, err := client.Fetch(fetch); err == nil {
		t.Fatal("a malformed frame was accepted")
	}
	res, err := client.Fetch(fetch)
	if err != nil || res.Body == nil {
		t.Fatalf("fetch after an abort on a malformed frame: %v", err)
	}
	if res.Reconnects != 0 || res.Rounds != 1 {
		t.Errorf("fetch on a fresh connection took %d rounds and %d reconnects, want 1 and 0", res.Rounds, res.Reconnects)
	}
}

// TestRoundDeadlineLeavesClientUsable: a round that overruns its deadline
// with reconnection disabled ends the fetch mid-stream; the next fetch,
// with no deadline, starts on a fresh connection and succeeds.
func TestRoundDeadlineLeavesClientUsable(t *testing.T) {
	client := startServer(t, ServerOptions{PacketDelay: 5 * time.Millisecond})
	client.Retry = NoRetry
	fetch := FetchOptions{Doc: corpus.DraftName, Caching: true}
	short := fetch
	short.RoundTimeout = 20 * time.Millisecond
	if _, err := client.Fetch(short); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("a round past its deadline without reconnection: %v, want ErrDisconnected", err)
	}
	res, err := client.Fetch(fetch)
	if err != nil || res.Body == nil {
		t.Fatalf("fetch after a round deadline: %v", err)
	}
}

// TestCancelledSearchLeavesClientUsable: a search cancelled before its
// response arrives leaves that response to come; the next fetch must not
// read it as its own header.
func TestCancelledSearchLeavesClientUsable(t *testing.T) {
	real := startServerAddr(t, ServerOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	asked, late := make(chan struct{}), make(chan struct{})
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		r := bufio.NewReader(conn)
		if _, err := readReq(r); err != nil {
			return
		}
		close(asked)
		<-late
		conn.Write(record(t, Response{OK: true, Hits: []HitSummary{{Name: corpus.DraftName}}}))
		io.Copy(io.Discard, r)
	}()
	client, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.Timeout = 10 * time.Second
	client.SetRedial(func() (net.Conn, error) { return net.Dial("tcp", real) })
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-asked
		cancel()
	}()
	if _, err := client.SearchContext(ctx, "mobile", 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled search: %v, want context.Canceled", err)
	}
	close(late)
	res, err := client.Fetch(FetchOptions{Doc: corpus.DraftName, Caching: true})
	if err != nil || res.Body == nil {
		t.Fatalf("fetch after a cancelled search: %v", err)
	}
}
