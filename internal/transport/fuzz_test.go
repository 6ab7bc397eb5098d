package transport

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
	"unicode/utf8"

	"mobweb/internal/core"
	"mobweb/internal/corpus"
	"mobweb/internal/erasure"
	"mobweb/internal/search"
	"mobweb/internal/textproc"
)

// FuzzRequestDecode feeds arbitrary bytes through the same path the
// connection handler runs on every control record — the request decoder
// followed by plan resolution for fetch ops — and demands that nothing
// panics. Malformed records must come back as errors or client-facing
// messages, never as a downed handler. A record that decodes re-encodes to
// a fixpoint: written again and read back, it writes the same bytes.
func FuzzRequestDecode(f *testing.F) {
	// Seed corpus: the documented ops, boundary parameter values, and a
	// few deliberately broken records.
	for _, req := range []Request{
		{Op: "search", Query: "mobile web", Limit: 5},
		{Op: "fetch", Doc: "draft.xml", Query: "mobile web browsing", LOD: "paragraph", Notion: "QIC", Gamma: 1.5},
		{Op: "fetch", Doc: "draft.xml", LOD: "section", Notion: "mqic"},
		{Op: "fetch", Doc: "draft.xml", Gamma: -1},
		{Op: "fetch", Doc: "draft.xml", Gamma: 0.5},
		{Op: "fetch", Doc: "draft.xml", Gamma: 1e308},
		{Op: "fetch", Doc: "draft.xml", Gamma: math.NaN()},
		{Op: "fetch", Doc: "", LOD: "chapter", Notion: "ZIC"},
		{Op: "fetch", Doc: "ghost.xml", Have: []int{-7, 0, 1, 2, 99999}, DoneGens: []int{0, 3}, Seed: 1 << 63},
		{Op: "fetch", Doc: "draft.xml", Codec: "fountain", Prefetch: true},
		{Op: "fetch", Doc: "draft.xml", LOD: "PARAGRAPH", Notion: "qic", Gamma: 255},
		{Op: "stop"},
		{Op: "stopgen", Gen: 3},
		{Op: "more", Frames: -1},
		{Op: "noop"},
		{},
	} {
		f.Add(record(f, req))
	}
	for _, s := range []string{
		`{"op":"fetch","doc":"draft.xml"}` + "\n",
		"\x00\x01\x02",
		"\x02\x03",
		"\x03\x02\x80\x40",
		"\xff\xff\xff\x01",
	} {
		f.Add([]byte(s))
	}

	engine := search.NewEngine(textproc.Options{})
	doc, err := corpus.Load(corpus.DraftName)
	if err != nil {
		f.Fatal(err)
	}
	if err := engine.Add(doc); err != nil {
		f.Fatal(err)
	}
	srv, err := NewServer(engine, ServerOptions{})
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := readReq(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return // handler drops the connection; nothing else runs
		}
		again := record(t, req)
		back, err := readReq(bufio.NewReader(bytes.NewReader(again)))
		if err != nil {
			t.Fatalf("re-encoded %+v does not read back: %v", req, err)
		}
		if twice := record(t, back); !bytes.Equal(twice, again) {
			t.Fatalf("re-encoding is not a fixpoint: %x then %x", again, twice)
		}
		switch req.Op {
		case "fetch":
			r, refusal := srv.local.resolve(req)
			if r.resolved == nil && refusal.Error == "" {
				t.Fatalf("resolve returned neither plan nor refusal for %x", data)
			}
			if !utf8.ValidString(refusal.Error) {
				t.Fatalf("invalid message %q", refusal.Error)
			}
		case "search":
			srv.local.Search(req)
		}
	})
}

// FuzzResponseDecode feeds arbitrary bytes through the client's response
// reader: it must refuse or decode, never panic or allocate past what the
// bytes can hold, and what it decodes re-encodes to a fixpoint. Seeds are
// the records a server writes — a fetch header, a search reply, a shed
// and a degraded refusal — and broken ones.
func FuzzResponseDecode(f *testing.F) {
	lo := core.Layout{PacketSize: 8, BodySize: 8, Shapes: []core.GenerationShape{{M: 1, N: 2}},
		Accrual: []core.SegmentMeta{{Label: "1", Title: "t", Score: 1, Length: 8}}}
	for _, resp := range []Response{
		{OK: true, Layout: &lo, Sending: 2, Replica: "r1", Capability: "clear-prefix-only"},
		{OK: true, Hits: []HitSummary{{Name: "draft.xml", Title: "Draft", Score: 0.5}, {Name: "b", Score: math.NaN()}}},
		{Error: "load shed", Shed: true, RetryAfterMS: 250, Replica: "front"},
		{Error: "capability search-only: fetch refused", Degraded: true, Capability: "search-only"},
		{},
	} {
		f.Add(record(f, resp))
	}
	for _, s := range []string{
		`{"ok":true}` + "\n",
		"\x02\x10\x80",
		"\x03\x10\x02\x01",
		"\x05\x10\x80\x02\xff\xff",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := ReadResponse(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			if !errors.Is(err, ErrBadResponse) && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("error %v is neither ErrBadResponse nor an end of input", err)
			}
			return
		}
		again := record(t, resp)
		back, err := ReadResponse(bufio.NewReader(bytes.NewReader(again)))
		if err != nil {
			t.Fatalf("re-encoded response does not read back: %v", err)
		}
		if twice := record(t, back); !bytes.Equal(twice, again) {
			t.Fatalf("re-encoding is not a fixpoint: %x then %x", again, twice)
		}
	})
}

// FuzzResponseLayout feeds arbitrary bytes through what the client does
// with a fetch response header — the record decode (the layout is
// core.Layout's binary encoding, raw), layout validation, receiver
// construction — and then drives the receiver the way a fetch would:
// packets in, progress questions after each, reconstruction at the end.
// A hostile or buggy server may get an error back; it must never get a
// panic. The layout is the one piece of the protocol whose offsets the
// client slices its own buffers by.
func FuzzResponseLayout(f *testing.F) {
	// Hand-sized seeds: the engine minimises every interesting input, and
	// a real plan's layout is kilobytes to minimise. Each is a core.Layout
	// value written the way the server writes it.
	seg := func(label string, score float64, permutedOff, origOff, length int) core.SegmentMeta {
		return core.SegmentMeta{Label: label, Score: score, PermutedOff: permutedOff, OrigOff: origOff, Length: length}
	}
	tenths := make([]core.SegmentMeta, 9)
	for i := range tenths {
		tenths[i] = seg(string(rune('1'+i)), 0.1, 0, 0, 8)
	}
	one := []core.GenerationShape{{M: 1, N: 1}}
	for _, lo := range []*core.Layout{
		// offset+length wraps negative: passed Validate, panicked Reconstruct
		{PacketSize: 8, BodySize: 8, Shapes: one, Ranked: []core.SegmentMeta{seg("1", 1, 0, math.MaxInt, 1)}},
		{PacketSize: 8, BodySize: 8, Shapes: []core.GenerationShape{{M: 1, N: 2}}, Accrual: []core.SegmentMeta{seg("1", 1, math.MaxInt-7, 0, 8)}},
		// every unit claims the whole body
		{PacketSize: 2, BodySize: 8, Shapes: []core.GenerationShape{{M: 4, N: 6}}, Accrual: tenths},
		// zero-length units, units out of order, a fountain stream
		{PacketSize: 4, BodySize: 10, Shapes: []core.GenerationShape{{M: 2, N: 3}, {M: 1, N: 2}},
			Ranked:  []core.SegmentMeta{seg("1", 1, 0, 0, 10)},
			Accrual: []core.SegmentMeta{seg("b", 0.5, 6, 6, 4), seg("e", 0, 6, 6, 0), seg("a", 0.5, 0, 0, 6)}},
		{PacketSize: 4, BodySize: 10, Shapes: []core.GenerationShape{{M: 3, N: 3}},
			Ranked: []core.SegmentMeta{seg("1", 1, 0, 0, 10)}, Accrual: []core.SegmentMeta{seg("a", 1, 0, 0, 10)},
			Codec: erasure.CodecFountain, Seed: 5},
		// a NaN score: no ordered comparison catches it, only Validate's finiteness check
		{PacketSize: 8, BodySize: 8, Shapes: one, Accrual: []core.SegmentMeta{seg("a", math.NaN(), 0, 0, 8)}},
		nil,
		{},
		{PacketSize: -1, BodySize: -1, Shapes: []core.GenerationShape{{M: -1, N: 300}}},
	} {
		f.Add(record(f, Response{OK: true, Layout: lo}))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := ReadResponse(bufio.NewReader(bytes.NewReader(data)))
		if err != nil || resp.Layout == nil {
			return
		}
		lo := *resp.Layout
		// Bound the work, not the shapes: a megabyte packet or ten
		// thousand generations is legal and slow, not interesting.
		if lo.PacketSize > 256 || len(lo.Shapes) > 8 || lo.N() > 512 || len(lo.Accrual) > 256 || len(lo.Ranked) > 256 {
			return
		}
		rcv, err := core.NewReceiverFromLayout(lo)
		if err != nil {
			return
		}
		payload := make([]byte, lo.PacketSize)
		for g, shape := range lo.Shapes {
			rows := shape.N
			if lo.Codec == erasure.CodecFountain {
				rows = 2*shape.M + 8
			}
			for k := 0; k < rows && !rcv.GenerationReconstructible(g); k++ {
				seq, ok := lo.WireSeq(g, k)
				if !ok {
					t.Fatalf("WireSeq(%d, %d) refused a row inside the layout", g, k)
				}
				if err := rcv.Add(seq, payload); err != nil {
					return // e.g. all-zero fountain symbols that contradict each other
				}
				rcv.InfoContent()
				rcv.NewUnits()
			}
		}
		if ic := rcv.InfoContent(); !(ic >= 0 && ic <= 1+1e-6) { // written so NaN fails
			t.Fatalf("InfoContent %v outside [0, 1]", ic)
		}
		rendered := rcv.Render()
		if got := rcv.AvailableUnits(); len(got) != len(rendered) {
			t.Fatalf("%d units available, %d rendered", len(got), len(rendered))
		}
		if rcv.Reconstructible() {
			body, err := rcv.Reconstruct()
			if err != nil {
				t.Fatal(err)
			}
			if len(body) != lo.BodySize {
				t.Fatalf("reconstructed %d bytes, layout says %d", len(body), lo.BodySize)
			}
		}
	})
}
