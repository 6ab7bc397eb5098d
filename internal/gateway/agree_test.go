package gateway

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"sync"
	"testing"
	"time"

	"mobweb/internal/core"
	"mobweb/internal/corpus"
	"mobweb/internal/erasure"
	"mobweb/internal/obs"
	"mobweb/internal/shard"
	"mobweb/internal/transport"
)

// frontEnds is one process as cmd/mrtserver builds it: one server built
// from opts on a loopback listener, the gateway over it, one registry.
func frontEnds(t *testing.T, opts transport.ServerOptions) (string, *Handler, *obs.Registry) {
	t.Helper()
	tr := startTier(t, opts, nil)
	h, err := New(tr.srv)
	if err != nil {
		t.Fatal(err)
	}
	h.SetMetrics(tr.reg)
	return tr.addr, h, tr.reg
}

// wireHeader sends req over TCP and returns the fetch's response header;
// the stream behind an OK header is abandoned with the connection.
func wireHeader(t *testing.T, addr string, req transport.Request) transport.Response {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	w := bufio.NewWriter(conn)
	if err := transport.WriteRequest(w, req); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	resp, err := transport.ReadResponse(bufio.NewReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// fetchRequest is the wire request /doc's fetch sends for a URL query:
// /doc's own defaults, paragraph and QIC, where the query names none.
func fetchRequest(doc string, q url.Values) transport.Request {
	req := transport.Request{Op: "fetch", Doc: doc, Query: q.Get("q"), LOD: "paragraph", Notion: "QIC", Codec: q.Get("codec")}
	if s := q.Get("lod"); s != "" {
		req.LOD = s
	}
	if s := q.Get("notion"); s != "" {
		req.Notion = s
	}
	fmt.Sscan(q.Get("gamma"), &req.Gamma)
	return req
}

// geometry is what a receiver has to agree on with the stream: the codec,
// each generation's M and N, and the seed (the content digest).
func geometry(l core.Layout) string {
	s := fmt.Sprintf("%v seed %#x", l.Codec, l.Seed)
	for _, g := range l.Shapes {
		s += fmt.Sprintf(" %d/%d", g.M, g.N)
	}
	return s
}

// refusalClass names a refused header the way transport.ErrorClass names
// the error a client makes of it.
func refusalClass(resp transport.Response) string {
	switch {
	case resp.OK:
		return ""
	case resp.Shed:
		return "shed"
	case resp.Degraded:
		return "degraded"
	}
	return "refused"
}

// TestFrontEndsAgree: one process, one server, two front ends. For every
// operator setting, the layout /layout hands out is the one the TCP fetch
// header carries, and /doc is refused exactly when the TCP fetch is.
func TestFrontEndsAgree(t *testing.T) {
	full := shard.NewGate(shard.GateOptions{MaxInFlight: 1, RetryAfter: 1500 * time.Millisecond})
	held, _, ok := full.Admit(false)
	if !ok {
		t.Fatal("the empty gate refused the first slot")
	}
	release := sync.OnceFunc(held)
	defer release()
	tier := func(c transport.Capability) *transport.CapabilityState { return transport.NewCapabilityState(c) }
	cases := []struct {
		name  string
		opts  transport.ServerOptions
		query string
		class string // the TCP fetch's refusal class; empty when it streams
	}{
		{"lod and notion defaults", transport.ServerOptions{}, "q=mobile+web", ""},
		{"explicit parameters", transport.ServerOptions{}, "q=mobile+web&lod=section&notion=IC&gamma=1.5", ""},
		{"fountain seed is the content digest", transport.ServerOptions{}, "q=mobile+web&codec=fountain", ""},
		{"default codec", transport.ServerOptions{DefaultCodec: erasure.CodecFountain}, "q=mobile+web", ""},
		{"degraded gamma clamp", transport.ServerOptions{Capability: tier(transport.CapFetchDegraded)}, "q=mobile+web", ""},
		{"clear prefix keeps the requested codec", transport.ServerOptions{Capability: tier(transport.CapClearPrefixOnly)}, "q=mobile+web&codec=fountain", ""},
		{"search only", transport.ServerOptions{Capability: tier(transport.CapSearchOnly)}, "q=mobile+web", "degraded"},
		{"admission budget full", transport.ServerOptions{Admission: full}, "q=mobile+web", "shed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addr, h, reg := frontEnds(t, tc.opts)
			q, err := url.ParseQuery(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			hdr := wireHeader(t, addr, fetchRequest(corpus.DraftName, q))
			if got := refusalClass(hdr); got != tc.class {
				t.Fatalf("TCP fetch class %q (%s), want %q", got, hdr.Error, tc.class)
			}

			doc := get(t, h, "/doc/"+corpus.DraftName+"?"+tc.query)
			class := "no gateway record"
			for _, rec := range reg.FetchLog().Recent(0) {
				if rec.Origin == "gateway" {
					class = rec.Err
					break
				}
			}
			if tc.class != "" {
				if doc.Code != http.StatusServiceUnavailable || doc.Header().Get("Retry-After") == "" || class != tc.class {
					t.Errorf("/doc: status %d, Retry-After %q, class %q; the TCP fetch was refused %s",
						doc.Code, doc.Header().Get("Retry-After"), class, tc.class)
				}
			} else if doc.Code != http.StatusOK || class != "" {
				t.Errorf("/doc: status %d, class %q; the TCP fetch streamed", doc.Code, class)
			}

			lay := get(t, h, "/layout/"+corpus.DraftName+"?"+tc.query)
			if tc.class == "degraded" {
				if lay.Code != http.StatusServiceUnavailable {
					t.Errorf("/layout: status %d, want the tier's 503", lay.Code)
				}
				return
			}
			if tc.class == "shed" {
				// Admission gates streams, not geometry: with the slot
				// back, the stream /layout describes is the one served.
				release()
				hdr = wireHeader(t, addr, fetchRequest(corpus.DraftName, q))
			}
			if lay.Code != http.StatusOK || !hdr.OK {
				t.Fatalf("/layout status %d (%s), TCP header %+v", lay.Code, lay.Body.String(), hdr.Error)
			}
			var got core.Layout
			if err := json.Unmarshal(lay.Body.Bytes(), &got); err != nil {
				t.Fatal(err)
			}
			if g, w := geometry(got), geometry(*hdr.Layout); g != w {
				t.Errorf("/layout geometry\n  %s\nTCP header\n  %s", g, w)
			}
			a, _ := got.MarshalBinary()
			b, _ := hdr.Layout.MarshalBinary()
			if !bytes.Equal(a, b) {
				t.Errorf("/layout and the TCP header differ in segments: %d vs %d encoded bytes", len(a), len(b))
			}
		})
	}
}
