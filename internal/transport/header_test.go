package transport

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strings"
	"testing"

	"mobweb/internal/channel"
	"mobweb/internal/core"
	"mobweb/internal/corpus"
	"mobweb/internal/document"
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

// TestHeaderBytesCounted: the control-line bytes the client reports
// (FetchResult.HeaderBytes) and the server reports (serve.header_bytes)
// are the bytes that crossed the connection ahead of the frames — counted,
// and not yet part of BytesReceived (ROADMAP item 2).
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
		if err := WriteJSONLine(conn, Request{Op: "fetch", Doc: corpus.DraftName, LOD: "paragraph"}); err != nil {
			t.Fatal(err)
		}
		r := bufio.NewReader(conn)
		resp, n, err := readResponse(r)
		if err != nil || !resp.OK || resp.Layout == nil {
			t.Fatalf("header: %+v, %v", resp, err)
		}
		// What the reader pulled off the conn and has not handed out yet is
		// frames; the rest is the line.
		if onWire := conn.in.Len() - r.Buffered(); n != onWire {
			t.Errorf("readResponse reports %d bytes, the conn delivered %d", n, onWire)
		}
		if got := reg.Snapshot().Counters["serve.header_bytes"]; got != int64(n) {
			t.Errorf("serve.header_bytes = %d, the client read %d", got, n)
		}
		text, err := resp.Layout.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		if n < len(text) || n > len(text)+100 {
			t.Errorf("header line is %d bytes around a %d-byte layout", n, len(text))
		}
	})

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
		// Every frame on the wire is one packet.Marshal of the same size, so
		// BytesReceived holding frames only is checkable exactly.
		if res.BytesReceived%res.PacketsReceived != 0 {
			t.Errorf("BytesReceived = %d is not %d whole frames: header bytes leaked in", res.BytesReceived, res.PacketsReceived)
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
// frame: the response line with the layout written (server) and read back
// (client). results/header-bench.txt holds parent against change.
func BenchmarkHeaderRoundTrip(b *testing.B) {
	for _, docBytes := range []int{10240, 32768} {
		b.Run(fmt.Sprintf("doc=%d", docBytes), func(b *testing.B) {
			layout := benchLayout(b, docBytes)
			var buf bytes.Buffer
			r := bufio.NewReader(&buf)
			line := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := WriteJSONLine(&buf, Response{OK: true, Layout: &layout, Sending: layout.N()}); err != nil {
					b.Fatal(err)
				}
				line = buf.Len()
				r.Reset(&buf)
				resp, err := ReadResponse(r)
				if err != nil || resp.Layout == nil || resp.Layout.BodySize != docBytes {
					b.Fatalf("read back %+v, %v", resp, err)
				}
			}
			b.ReportMetric(float64(line), "line-B")
		})
	}
}
