package transport

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"mobweb/internal/channel"
	"mobweb/internal/core"
	"mobweb/internal/corpus"
	"mobweb/internal/document"
	"mobweb/internal/erasure"
	"mobweb/internal/obs"
)

// countingConn keeps a copy of every byte read off and written to the
// connection, so a test can count them and replay both directions of the
// protocol afterwards. It serves one goroutine.
type countingConn struct {
	net.Conn
	in, out bytes.Buffer
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Write(p[:n])
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Write(p[:n])
	return n, err
}

// TestHeaderBytesCounted: the control-record bytes the client reports
// (FetchResult.HeaderBytes down, UplinkBytes up) and the server reports
// (serve.header_bytes, serve.uplink_bytes) are the bytes that crossed the
// connection ahead of and beside the frames — counted, and not yet part
// of BytesReceived (ROADMAP item 2).
func TestHeaderBytesCounted(t *testing.T) {
	t.Run("one line against the conn", func(t *testing.T) {
		reg := obs.NewRegistry()
		addr := startServerAddr(t, ServerOptions{Metrics: reg})
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer raw.Close()
		conn := &countingConn{Conn: raw}
		if err := writeRecordTo(conn, Request{Op: "fetch", Doc: corpus.DraftName, LOD: "paragraph"}); err != nil {
			t.Fatal(err)
		}
		r := bufio.NewReader(conn)
		resp, n, err := readResponse(r)
		if err != nil || !resp.OK || resp.Layout == nil {
			t.Fatalf("header: %+v, %v", resp, err)
		}
		// What the reader pulled off the conn and has not handed out yet is
		// frames; the rest is the record.
		if onWire := conn.in.Len() - r.Buffered(); n != onWire {
			t.Errorf("readResponse reports %d bytes, the conn delivered %d", n, onWire)
		}
		counters := reg.Snapshot().Counters
		if got := counters["serve.header_bytes"]; got != int64(n) {
			t.Errorf("serve.header_bytes = %d, the client read %d", got, n)
		}
		if got := counters["serve.uplink_bytes"]; got != int64(conn.out.Len()) {
			t.Errorf("serve.uplink_bytes = %d, the client wrote %d", got, conn.out.Len())
		}
		bin, err := resp.Layout.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if n < len(bin) || n > len(bin)+16 {
			t.Errorf("header record is %d bytes around a %d-byte layout", n, len(bin))
		}
	})

	// agree waits for the server to have read what the client wrote: a
	// stopgen or grant sent as the stream ended may still be in flight
	// when the fetch returns.
	agree := func(t *testing.T, reg *obs.Registry, res *FetchResult) {
		t.Helper()
		var got int64
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if got = reg.Snapshot().Counters["serve.uplink_bytes"]; got == int64(res.UplinkBytes) {
				break
			}
		}
		if got != int64(res.UplinkBytes) || got == 0 {
			t.Errorf("UplinkBytes = %d over %d rounds, serve.uplink_bytes = %d", res.UplinkBytes, res.Rounds, got)
		}
	}

	t.Run("summed over rounds", func(t *testing.T) {
		reg := obs.NewRegistry()
		model, err := channel.NewBernoulli(0.3, 11)
		if err != nil {
			t.Fatal(err)
		}
		client := startServer(t, ServerOptions{InjectorFactory: oneChannel(NewModelInjector(model)), Metrics: reg})
		res, err := client.Fetch(FetchOptions{Doc: corpus.DraftName, Caching: true, Gamma: 1.1, MaxRounds: 30})
		if err != nil || res.Body == nil {
			t.Fatalf("fetch: %v", err)
		}
		if res.Rounds < 2 {
			t.Fatalf("fetch took %d rounds; the seed no longer forces a retransmission", res.Rounds)
		}
		if got := reg.Snapshot().Counters["serve.header_bytes"]; int64(res.HeaderBytes) != got || got == 0 {
			t.Errorf("HeaderBytes = %d over %d rounds, serve.header_bytes = %d", res.HeaderBytes, res.Rounds, got)
		}
		agree(t, reg, res)
		// Every frame on the wire is one packet.Marshal of the same size, so
		// BytesReceived holding frames only is checkable exactly.
		if res.BytesReceived%res.PacketsReceived != 0 {
			t.Errorf("BytesReceived = %d is not %d whole frames: header bytes leaked in", res.BytesReceived, res.PacketsReceived)
		}
	})

	t.Run("uplink feedback", func(t *testing.T) {
		// A lossy fountain fetch at γ = 1 sends every kind of feedback:
		// grants past its window of M frames, stopgens as generations
		// decode, and a stop once the whole document does.
		reg := obs.NewRegistry()
		model, err := channel.NewBernoulli(0.3, 5)
		if err != nil {
			t.Fatal(err)
		}
		client := startServer(t, ServerOptions{
			Defaults:        core.Config{MaxGeneration: 8},
			InjectorFactory: oneChannel(NewModelInjector(model)),
			Metrics:         reg,
		})
		res, err := client.Fetch(FetchOptions{Doc: corpus.DraftName, Codec: erasure.CodecFountain, Gamma: 1})
		if err != nil || res.Body == nil {
			t.Fatalf("fetch: %v", err)
		}
		agree(t, reg, res)
		if reg.Snapshot().Counters["serve.requests_more"] == 0 {
			t.Error("the skim granted nothing; the feedback path went unexercised")
		}
	})
}

// benchLayout is the layout of a docBytes-long document of 512-byte
// paragraphs ranked by paragraph: the Table 2 document at 10 240 B, the
// benchmark's large document at 32 768 B.
func benchLayout(tb testing.TB, docBytes int) core.Layout {
	tb.Helper()
	b := document.NewBuilder()
	for s := 0; s < docBytes/2048; s++ {
		b.Open(document.LODSection, "", fmt.Sprintf("Section %d", s+1))
		for ss := 0; ss < 2; ss++ {
			b.Open(document.LODSubsection, "", "")
			b.Paragraph(strings.Repeat("x", 511))
			b.Paragraph(strings.Repeat("y", 511))
			b.Close()
		}
		b.Close()
	}
	doc, err := b.Build("bench-doc", "Synthetic")
	if err != nil {
		tb.Fatal(err)
	}
	if doc.Size() != docBytes {
		tb.Fatalf("document is %d bytes, want %d", doc.Size(), docBytes)
	}
	paras := doc.Paragraphs()
	scores := make(map[int]float64, len(paras))
	for i, p := range paras {
		scores[p.ID] = float64(i+1) / float64(len(paras)*(len(paras)+1)/2)
	}
	plan, err := core.NewPlanWithScores(doc, scores, core.Config{LOD: document.LODParagraph})
	if err != nil {
		tb.Fatal(err)
	}
	return plan.Layout()
}

// BenchmarkHeaderRoundTrip times what every round pays before its first
// frame: the fetch request written (client) and read (server), then the
// response record with the layout written (server) and read back
// (client), each through the connection buffers as the live path runs
// them. The server writes the layout bytes its planner holds.
// results/header-bench.txt holds parent against change.
func BenchmarkHeaderRoundTrip(b *testing.B) {
	for _, docBytes := range []int{10240, 32768} {
		b.Run(fmt.Sprintf("doc=%d", docBytes), func(b *testing.B) {
			layout := benchLayout(b, docBytes)
			bin, err := layout.MarshalBinary()
			if err != nil {
				b.Fatal(err)
			}
			req := Request{Op: "fetch", Doc: "bench-doc", Query: "mobile web", LOD: "paragraph", Notion: "QIC", Codec: "vandermonde"}
			var buf bytes.Buffer
			w := bufio.NewWriterSize(&buf, 64<<10)
			r := bufio.NewReaderSize(&buf, 64<<10)
			up, down := 0, 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				r.Reset(&buf)
				n, err := writeRequest(w, &req)
				if err == nil {
					err = w.Flush()
				}
				if err != nil {
					b.Fatal(err)
				}
				up = n
				if got, err := readReq(r); err != nil || got.Doc != req.Doc {
					b.Fatalf("request read back %+v, %v", got, err)
				}
				n, err = writeResponse(w, &Response{OK: true, Layout: &layout, layoutBin: bin, Sending: layout.N()})
				if err == nil {
					err = w.Flush()
				}
				if err != nil {
					b.Fatal(err)
				}
				down = n
				resp, err := ReadResponse(r)
				if err != nil || resp.Layout == nil || resp.Layout.BodySize != docBytes {
					b.Fatalf("read back %+v, %v", resp, err)
				}
			}
			b.ReportMetric(float64(up), "request-B")
			b.ReportMetric(float64(down), "line-B")
		})
	}
}
