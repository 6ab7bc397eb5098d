package transport

import (
	"encoding/json"
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
			plan, msg := srv.local.buildPlan(req)
			if plan == nil && msg == "" {
				t.Fatalf("buildPlan returned neither plan nor message for %q", line)
			}
			if plan != nil && !utf8.ValidString(msg) {
				t.Fatalf("invalid message %q", msg)
			}
		case "search":
			srv.local.Search(req)
		}
	})
}

// FuzzResponseLayout feeds arbitrary bytes through what the client does
// with a fetch response header — JSON decode, layout validation, receiver
// construction — and then drives the receiver the way a fetch would:
// packets in, progress questions after each, reconstruction at the end.
// A hostile or buggy server may get an error back; it must never get a
// panic. The layout is the one piece of the protocol whose offsets the
// client slices its own buffers by.
func FuzzResponseLayout(f *testing.F) {
	// Hand-sized seeds: the engine minimises every interesting input, and
	// a real plan's layout is tens of kilobytes of JSON to minimise.
	for _, s := range []string{
		// offset+length wraps negative: passed Validate, panicked Reconstruct
		`{"ok":true,"layout":{"packetSize":8,"bodySize":8,"shapes":[{"m":1,"n":1}],"ranked":[{"label":"1","level":1,"score":1,"permutedOff":0,"origOff":9223372036854775807,"length":1}]}}`,
		`{"ok":true,"layout":{"packetSize":8,"bodySize":8,"shapes":[{"m":1,"n":2}],"accrual":[{"label":"1","level":4,"score":1,"permutedOff":9223372036854775800,"origOff":0,"length":8}]}}`,
		// every unit claims the whole body
		`{"ok":true,"layout":{"packetSize":2,"bodySize":8,"shapes":[{"m":4,"n":6}],"accrual":[{"label":"1","score":0.1,"length":8},{"label":"2","score":0.1,"length":8},{"label":"3","score":0.1,"length":8},{"label":"4","score":0.1,"length":8},{"label":"5","score":0.1,"length":8},{"label":"6","score":0.1,"length":8},{"label":"7","score":0.1,"length":8},{"label":"8","score":0.1,"length":8},{"label":"9","score":0.1,"length":8}]}}`,
		// zero-length units, units out of order, a fountain stream
		`{"ok":true,"layout":{"packetSize":4,"bodySize":10,"shapes":[{"m":2,"n":3},{"m":1,"n":2}],"ranked":[{"label":"1","score":1,"length":10}],"accrual":[{"label":"b","score":0.5,"permutedOff":6,"origOff":6,"length":4},{"label":"e","score":0,"permutedOff":6,"origOff":6},{"label":"a","score":0.5,"length":6}]}}`,
		`{"ok":true,"layout":{"packetSize":4,"bodySize":10,"shapes":[{"m":3,"n":3}],"ranked":[{"label":"1","score":1,"length":10}],"accrual":[{"label":"a","score":1,"length":10}],"codec":1,"seed":5}}`,
		`{"ok":true}`,
		`{"ok":true,"layout":{}}`,
		`{"ok":true,"layout":{"packetSize":-1,"bodySize":-1,"shapes":[{"m":-1,"n":300}]}}`,
	} {
		f.Add([]byte(s))
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
		if ic := rcv.InfoContent(); ic < 0 || ic > 1+1e-6 {
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
