package transport

import (
	"net"
	"runtime"
	"testing"
	"time"

	"mobweb/internal/corpus"
	"mobweb/internal/erasure"
	"mobweb/internal/search"
	"mobweb/internal/textproc"
)

// TestNoReaderGoroutineLeak reproduces the condition where a handler
// exits while its reader goroutine already holds a parsed request: the
// client sends a valid request followed immediately by more requests and
// slams the connection shut. Without the handlerDone guard, each such
// connection leaked one goroutine blocked on a channel send.
func TestNoReaderGoroutineLeak(t *testing.T) {
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
	srv, err := NewServer(engine, ServerOptions{})
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

	baseline := runtime.NumGoroutine()
	const conns = 30
	for i := 0; i < conns; i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		// A fetch that starts a stream, then a mid-stream protocol
		// violation plus one more queued request, then a hard close:
		// the handler aborts with the third request possibly parsed.
		WriteJSONLine(conn, Request{Op: "fetch", Doc: corpus.DraftName})
		WriteJSONLine(conn, Request{Op: "search", Query: "x"})
		WriteJSONLine(conn, Request{Op: "search", Query: "y"})
		conn.Close()
	}

	// Give handlers time to unwind, then compare goroutine counts.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+3 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	after := runtime.NumGoroutine()
	if after > baseline+conns/2 {
		t.Errorf("goroutines grew from %d to %d after %d abusive connections; reader leak", baseline, after, conns)
	}

	srv.Close()
	<-serveDone
}

// goroutineBaseline waits until the goroutine count has held still for
// 50 ms (at most 2 s) and returns it, so a baseline does not count what
// earlier tests are still tearing down: those exits would otherwise
// hide a goroutine the test under way leaks.
func goroutineBaseline() int {
	n := runtime.NumGoroutine()
	deadline := time.Now().Add(2 * time.Second)
	for still := 0; still < 5 && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			still++
		} else {
			n, still = m, 0
		}
	}
	return n
}

// settleGoroutines waits for the goroutine count to come back down to
// baseline and fails the test, with a dump of what is still running, if
// it does not.
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, want at most %d:\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestNoGoroutinesAfterClose runs every kind of stream, then closes the
// server over one idle connection and one mid-stream: Close must take
// every goroutine the server started with it.
func TestNoGoroutinesAfterClose(t *testing.T) {
	baseline := goroutineBaseline()
	t.Run("serve", func(t *testing.T) {
		client, srv := startServerHandle(t, ServerOptions{PacketDelay: time.Millisecond})
		for _, opts := range []FetchOptions{
			{Doc: corpus.DraftName, Caching: true},
			{Doc: corpus.DraftName, Caching: true, Codec: erasure.CodecFountain},
		} {
			if _, err := client.Fetch(opts); err != nil {
				t.Fatal(err)
			}
		}
		midStream := dialRaw(t, client.conn.RemoteAddr().String())
		midStream.send(Request{Op: "fetch", Doc: corpus.DraftName, Codec: "fountain"})
		if resp, err := midStream.response(); err != nil || !resp.OK {
			t.Fatalf("fetch header: %+v, %v", resp, err)
		}
		if _, _, err := midStream.frames(3); err != nil {
			t.Fatal(err)
		}
		srv.Close()
	})
	settleGoroutines(t, baseline)
}
