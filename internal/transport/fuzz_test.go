package transport

import (
	"bytes"
	"encoding/json"
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
// connection handler runs on every control line — JSON decoding followed
// by plan resolution for fetch ops — and demands that nothing panics.
// Malformed frames must come back as errors or client-facing messages,
// never as a downed handler.
func FuzzRequestDecode(f *testing.F) {
	// Seed corpus: the documented ops, boundary parameter values, and a
	// few deliberately broken lines.
	seeds := []string{
		`{"op":"search","query":"mobile web","limit":5}`,
		`{"op":"fetch","doc":"draft.xml","query":"mobile web browsing","lod":"paragraph","notion":"QIC","gamma":1.5}`,
		`{"op":"fetch","doc":"draft.xml","lod":"section","notion":"mqic"}`,
		`{"op":"fetch","doc":"draft.xml","gamma":-1}`,
		`{"op":"fetch","doc":"draft.xml","gamma":0.5}`,
		`{"op":"fetch","doc":"draft.xml","gamma":1e308}`,
		`{"op":"fetch","doc":"","lod":"chapter","notion":"ZIC"}`,
		`{"op":"fetch","doc":"ghost.xml","have":[0,1,2,-7,99999]}`,
		`{"op":"stop"}`,
		`{"op":"noop"}`,
		`{}`,
		`{"op":`,
		`[]`,
		`null`,
		`{"op":"fetch","doc":"draft.xml","gamma":"NaN"}`,
		"\x00\x01\x02",
		`{"op":"fetch","doc":"draft.xml","lod":"PARAGRAPH","notion":"qic","gamma":255}`,
	}
	for _, s := range seeds {
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

	f.Fuzz(func(t *testing.T, line []byte) {
		req, err := DecodeRequest(line)
		if err != nil {
			return // handler drops the connection; nothing else runs
		}
		switch req.Op {
		case "fetch":
			r, refusal := srv.local.resolve(req)
			if r.resolved == nil && refusal.Error == "" {
				t.Fatalf("resolve returned neither plan nor refusal for %q", line)
			}
			if !utf8.ValidString(refusal.Error) {
				t.Fatalf("invalid message %q", refusal.Error)
			}
		case "search":
			srv.local.Search(req)
		}
	})
}

// FuzzResponseLayout feeds arbitrary bytes through what the client does
// with a fetch response header — JSON decode (the layout member is base64
// of core.Layout's binary encoding), layout validation, receiver
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
		var line bytes.Buffer
		if err := WriteJSONLine(&line, Response{OK: true, Layout: lo}); err != nil {
			f.Fatal(err)
		}
		f.Add(line.Bytes())
	}

	f.Fuzz(func(t *testing.T, line []byte) {
		var resp Response
		if json.Unmarshal(line, &resp) != nil || resp.Layout == nil {
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
