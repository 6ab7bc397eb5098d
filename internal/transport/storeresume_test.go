package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"net"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"mobweb/internal/core"
	"mobweb/internal/corpus"
	"mobweb/internal/erasure"
	"mobweb/internal/search"
	"mobweb/internal/store"
)

// startServerAddr launches a server and returns its address, so tests
// can dial several client "process lives" against one server.
func startServerAddr(t *testing.T, opts ServerOptions) string {
	t.Helper()
	return serveEngine(t, corpusEngine(t), opts)
}

// serveEngine launches a server over engine and returns its address.
func serveEngine(t *testing.T, engine *search.Engine, opts ServerOptions) string {
	t.Helper()
	srv, err := NewServer(engine, opts)
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
	t.Cleanup(func() {
		srv.Close()
		<-serveDone
	})
	return ln.Addr().String()
}

// dialWithStore opens one client "process life" over its own store
// handle on the shared directory.
func dialWithStore(t *testing.T, addr, dir string) *Client {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	client.Timeout = 10 * time.Second
	client.Store = st
	t.Cleanup(func() { client.Close() })
	return client
}

// TestStoreResumeFullDocumentNeedsNoNetwork is the strongest restart
// claim: a completed caching fetch persists everything, so the next
// process life reconstructs the byte-identical document with zero
// rounds and zero packets on the wire.
func TestStoreResumeFullDocumentNeedsNoNetwork(t *testing.T) {
	addr := startServerAddr(t, ServerOptions{})
	dir := t.TempDir()
	opts := FetchOptions{Doc: corpus.DraftName, Caching: true}

	c1 := dialWithStore(t, addr, dir)
	first, err := c1.Fetch(opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.Body == nil {
		t.Fatal("first fetch did not reconstruct")
	}
	c1.Close()
	c1.Store.Close() // the "kill": both handles gone

	c2 := dialWithStore(t, addr, dir)
	second, err := c2.Fetch(opts)
	if err != nil {
		t.Fatal(err)
	}
	if second.Rounds != 0 || second.PacketsReceived != 0 {
		t.Fatalf("restarted fetch used the network: %d rounds, %d packets",
			second.Rounds, second.PacketsReceived)
	}
	if second.StoredPackets == 0 {
		t.Fatal("restarted fetch reports no stored records")
	}
	if !bytes.Equal(second.Body, first.Body) {
		t.Fatal("restarted reconstruction differs from the original")
	}
}

// TestStoreResumePartialRefetchesNothing kills the client mid-document
// (a budgeted prefetch stops the stream early) and resumes in a new
// process life: the resumed fetch must complete without re-receiving a
// single packet it already held — the Have/DoneGens feedback working end
// to end. The torn cases also cut the newest segment mid-record between
// the two lives, the torn write a crash mid-append leaves: recovery drops
// that record, and the resume still seeds from the rest.
func TestStoreResumePartialRefetchesNothing(t *testing.T) {
	for _, tc := range []struct {
		name  string
		codec erasure.CodecID
		torn  bool
	}{
		{"vandermonde", erasure.CodecVandermonde, false},
		{"fountain", erasure.CodecFountain, false},
		{"vandermonde-torn-tail", erasure.CodecVandermonde, true},
		{"fountain-torn-tail", erasure.CodecFountain, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr := startServerAddr(t, ServerOptions{})
			dir := t.TempDir()

			// A budgeted prefetch window is a deterministic way to die
			// mid-document: exactly budget frames cross the wire, then the
			// process is killed.
			c1 := dialWithStore(t, addr, dir)
			partial, err := c1.Prefetch(FetchOptions{
				Doc: corpus.DraftName, Caching: true, Codec: tc.codec,
			}, 10)
			if err != nil {
				t.Fatal(err)
			}
			if partial.Intact == 0 {
				t.Fatal("partial prefetch held nothing")
			}
			c1.Close()
			c1.Store.Close()
			if tc.torn {
				// The last record is a cooked packet (the layout is written
				// first): cut it inside its payload.
				seg := lastSegment(t, dir)
				info, err := os.Stat(seg)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.Truncate(seg, info.Size()-100); err != nil {
					t.Fatal(err)
				}
			}

			c2 := dialWithStore(t, addr, dir)
			if st := c2.Store.Stats(); tc.torn && st.TornTails != 1 {
				t.Fatalf("reopening the torn store truncated %d segments, want 1", st.TornTails)
			}
			full, err := c2.Fetch(FetchOptions{
				Doc: corpus.DraftName, Caching: true, Codec: tc.codec,
			})
			if err != nil {
				t.Fatal(err)
			}
			if full.Body == nil {
				t.Fatal("resumed fetch did not reconstruct")
			}
			if full.StoredPackets == 0 {
				t.Fatal("resumed fetch seeded nothing from the store")
			}
			if tc.torn && full.StoredPackets != partial.Intact-1 {
				t.Fatalf("resumed fetch seeded %d packets from a store torn inside the last of %d",
					full.StoredPackets, partial.Intact)
			}
			if full.RefetchedPackets != 0 {
				t.Fatalf("resumed fetch re-received %d packets it already held",
					full.RefetchedPackets)
			}
			doc, err := corpus.Load(corpus.DraftName)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(full.Body, doc.Body()) {
				t.Fatal("resumed body differs from the source document")
			}
		})
	}
}

// TestDoneGensKeepsGenerationsOffTheAir checks the server side of the
// resume protocol directly: a fetch reporting generation 0 done must be
// promised fewer frames than a cold fetch — all of that generation's
// rows, parity included, stay off the air. DoneGens counts only for the
// stream its seed names: under another seed the fetch is a cold one.
func TestDoneGensKeepsGenerationsOffTheAir(t *testing.T) {
	client := startServer(t, ServerOptions{})

	// Speak the protocol by hand to control DoneGens exactly; drain each
	// stream fully so the connection stays usable.
	ctx := context.Background()
	fetchSending := func(done []int, seed uint64) (int, *core.Layout) {
		t.Helper()
		if err := client.send(ctx, Request{Op: "fetch", Doc: corpus.DraftName, DoneGens: done, Seed: seed}); err != nil {
			t.Fatal(err)
		}
		resp, _, err := client.readResponse(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !resp.OK || resp.Layout == nil {
			t.Fatalf("fetch refused: %s", resp.Error)
		}
		got := 0
		for {
			frame, err := ReadFrame(client.r)
			if err != nil {
				t.Fatal(err)
			}
			if frame == nil {
				break
			}
			got++
		}
		if got != resp.Sending {
			t.Fatalf("stream delivered %d frames, promised %d", got, resp.Sending)
		}
		return resp.Sending, resp.Layout
	}

	cold, layout := fetchSending(nil, 0)
	if cold != layout.N() {
		t.Fatalf("cold fetch promises %d frames, layout has %d", cold, layout.N())
	}
	resumed, _ := fetchSending([]int{0}, layout.Seed)
	if want := cold - layout.Shapes[0].N; resumed != want {
		t.Fatalf("DoneGens=[0] promises %d frames, want %d (cold %d minus gen0's %d rows)",
			resumed, want, cold, layout.Shapes[0].N)
	}
	if stale, _ := fetchSending([]int{0}, layout.Seed+1); stale != cold {
		t.Fatalf("DoneGens=[0] of another stream promises %d frames, want the cold %d", stale, cold)
	}
}

// TestPrefetchCancelPersistsPartialWindow is the mid-generation-cancel
// regression: a prefetch window killed by its context must persist the
// frames already received — the next process life starts from them
// instead of refetching. The server paces the stream so the cancel
// lands mid-window deterministically enough.
func TestPrefetchCancelPersistsPartialWindow(t *testing.T) {
	addr := startServerAddr(t, ServerOptions{PacketDelay: 2 * time.Millisecond})
	dir := t.TempDir()
	opts := FetchOptions{Doc: corpus.DraftName, Caching: true}

	c1 := dialWithStore(t, addr, dir)
	c1.Retry = NoRetry
	ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	defer cancel()
	res, err := c1.PrefetchContext(ctx, opts, 1<<20)
	if err == nil {
		t.Skip("prefetch finished before the cancel; nothing to regress")
	}
	// The cancel surfaces either as the context's own error or as the
	// poisoned-deadline I/O timeout that raced it; both are the cancel.
	if res.Intact == 0 {
		t.Skip("cancel landed before any frame; nothing to persist")
	}
	c1.Close()
	c1.Store.Close()

	c2 := dialWithStore(t, addr, dir)
	full, err := c2.Fetch(opts)
	if err != nil {
		t.Fatal(err)
	}
	if full.StoredPackets == 0 {
		t.Fatalf("canceled prefetch window (%d intact) was not persisted", res.Intact)
	}
	if full.RefetchedPackets != 0 {
		t.Fatalf("resume re-received %d persisted packets", full.RefetchedPackets)
	}
	if full.Body == nil {
		t.Fatal("resumed fetch did not reconstruct")
	}
}

// TestRetiredFountainCodecStoreNotSeeded: testdata/store-codec1 is a
// store written before the fountain stream became systematic — a
// ten-frame fountain prefetch of the draft document, so a layout and ten
// loose packets under codec id 1. Today's generator gives the same
// (seed, gen, seq) another combination, so seeding those packets would
// decode a wrong body with a nil error. The retired id keeps them out:
// the fetch seeds nothing and returns the exact body.
func TestRetiredFountainCodecStoreNotSeeded(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "store-codec1", "seg-00000000.log"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "seg-00000000.log"), fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	c := dialWithStore(t, startServerAddr(t, ServerOptions{}), dir)
	opts := FetchOptions{Doc: corpus.DraftName, Caching: true, Codec: erasure.CodecFountain}

	// The fixture's plan key is fetchShape's of its day, which still
	// ended in a seed term.
	const retired = corpus.DraftName + "||0|0|0|1|0"
	if n := len(c.Store.Packets(retired, 1)); n != 10 {
		t.Fatalf("fixture holds %d codec-1 packets, want 10", n)
	}
	if _, ok := c.Store.Layout(retired); ok {
		t.Fatal("a codec-1 layout validated")
	}
	full, err := c.Fetch(opts)
	if err != nil {
		t.Fatal(err)
	}
	if full.StoredPackets != 0 {
		t.Errorf("fetch seeded %d records of the retired stream", full.StoredPackets)
	}
	doc, err := corpus.Load(corpus.DraftName)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full.Body, doc.Body()) {
		t.Fatal("body fetched over a codec-1 store differs from the source document")
	}
}

// TestLegacyJSONLayoutDropped: a store last written by a build that kept
// the layout as JSON reopens cleanly under this one. The JSON record is
// intact as a record (framing and CRC are the store's, not the layout's),
// so recovery keeps it; its payload starts with '{', which is not a layout
// encoding version, so Layout reports it absent through the same path that
// drops any undecodable layout, and the fetch starts from scratch and
// reconstructs the same bytes. There is no legacy decoder to keep.
func TestLegacyJSONLayoutDropped(t *testing.T) {
	addr := startServerAddr(t, ServerOptions{})
	dir := t.TempDir()
	opts := FetchOptions{Doc: corpus.DraftName, Caching: true}
	plan := fetchShape(opts)

	// A first life leaves ten packets behind, as the old build would have.
	c1 := dialWithStore(t, addr, dir)
	if partial, err := c1.Prefetch(opts, 10); err != nil || partial.Intact == 0 {
		t.Fatalf("partial prefetch: %+v, %v", partial, err)
	}
	if _, ok := c1.Store.Layout(plan); !ok {
		t.Fatal("prefetch stored no layout")
	}
	c1.Close()
	c1.Store.Close()

	// The old build's layout record, appended where it shadows the new one
	// (the latest record of a key wins): kind 1, codec 0, gen 0, seq 0,
	// key, JSON payload, CRC-32 over all of it.
	legacy := []byte(`{"packetSize":256,"bodySize":5651,"shapes":[{"m":23,"n":35}],` +
		`"ranked":[{"label":"0","title":"draft","level":1,"score":1,"permutedOff":0,"origOff":0,"length":5651}],` +
		`"accrual":[{"label":"1.1","level":5,"score":0.05,"permutedOff":0,"origOff":0,"length":312}]}`)
	rec := make([]byte, 16, 16+len(plan)+len(legacy)+4)
	rec[0] = 1
	binary.BigEndian.PutUint16(rec[10:12], uint16(len(plan)))
	binary.BigEndian.PutUint32(rec[12:16], uint32(len(legacy)))
	rec = append(append(rec, plan...), legacy...)
	rec = binary.BigEndian.AppendUint32(rec, crc32.ChecksumIEEE(rec))
	f, err := os.OpenFile(lastSegment(t, dir), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(rec); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	c2 := dialWithStore(t, addr, dir)
	if st := c2.Store.Stats(); st.TornTails != 0 {
		t.Fatalf("reopening the legacy store truncated %d segments", st.TornTails)
	}
	if _, ok := c2.Store.Layout(plan); ok {
		t.Fatal("a JSON layout payload decoded")
	}
	full, err := c2.Fetch(opts)
	if err != nil {
		t.Fatal(err)
	}
	if full.StoredPackets != 0 {
		t.Errorf("fetch seeded %d records from a store without a usable layout", full.StoredPackets)
	}
	doc, err := corpus.Load(corpus.DraftName)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full.Body, doc.Body()) {
		t.Fatal("body fetched over the legacy store differs from the source document")
	}
	if _, ok := c2.Store.Layout(plan); !ok {
		t.Error("the completed fetch did not store its layout")
	}
}

// lastSegment returns the path of the store's newest segment file.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment files in the store: %v", err)
	}
	sort.Strings(segs)
	return segs[len(segs)-1]
}
