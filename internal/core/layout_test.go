package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"hash/crc64"
	"math"
	"strings"
	"testing"

	"mobweb/internal/document"
	"mobweb/internal/erasure"
	"mobweb/internal/packet"
)

// TestLayoutJSONRoundTrip: encoding/json carries a Layout as the base64
// text of its binary form (one string, picked up through MarshalText), and
// it comes back whole.
func TestLayoutJSONRoundTrip(t *testing.T) {
	doc, scores := paperShapedDoc(t)
	plan, err := NewPlanWithScores(doc, scores, Config{LOD: document.LODParagraph})
	if err != nil {
		t.Fatal(err)
	}
	layout := plan.Layout()
	data, err := json.Marshal(layout)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 2 || data[0] != '"' || data[len(data)-1] != '"' {
		t.Fatalf("layout marshalled as %.40s…, want one JSON string", data)
	}
	var back Layout
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !sameLayout(back, layout) {
		t.Errorf("round-trip changed the layout: %+v vs %+v", back, layout)
	}
	if back.M() != layout.M() || back.N() != layout.N() || back.BodySize != layout.BodySize {
		t.Errorf("round-trip changed geometry: %+v vs %+v", back, layout)
	}
	if len(back.Ranked) != len(layout.Ranked) || len(back.Accrual) != len(layout.Accrual) {
		t.Error("round-trip changed segment counts")
	}
	if err := back.Validate(); err != nil {
		t.Errorf("round-tripped layout invalid: %v", err)
	}
}

func TestReceiverFromLayoutDecodesRemoteStream(t *testing.T) {
	// The client-side scenario: a receiver built from serialized geometry
	// alone must decode the server's frames.
	doc, scores := paperShapedDoc(t)
	plan, err := NewPlanWithScores(doc, scores, Config{LOD: document.LODParagraph})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(plan.Layout())
	if err != nil {
		t.Fatal(err)
	}
	var layout Layout
	if err := json.Unmarshal(data, &layout); err != nil {
		t.Fatal(err)
	}
	rcv, err := NewReceiverFromLayout(layout)
	if err != nil {
		t.Fatal(err)
	}
	// Deliver only redundancy + a spread of clear packets: 15 clear
	// skipped, decode required.
	delivered := 0
	for seq := plan.N() - 1; seq >= 0 && delivered < plan.M(); seq -= 1 {
		if seq%3 == 0 {
			continue // pretend every third packet was corrupted
		}
		frame, err := plan.Frame(seq)
		if err != nil {
			t.Fatal(err)
		}
		if _, intact, err := rcv.AddFrame(frame); err != nil || !intact {
			t.Fatalf("AddFrame(%d) = (%v, %v)", seq, intact, err)
		}
		delivered++
	}
	if !rcv.Reconstructible() {
		t.Fatalf("receiver not reconstructible after %d packets", delivered)
	}
	body, err := rcv.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, doc.Body()) {
		t.Error("remote reconstruction differs from original body")
	}
}

func TestLayoutValidate(t *testing.T) {
	doc, scores := paperShapedDoc(t)
	plan, err := NewPlanWithScores(doc, scores, Config{})
	if err != nil {
		t.Fatal(err)
	}
	good := plan.Layout()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid layout rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Layout)
	}{
		{"zero packet size", func(l *Layout) { l.PacketSize = 0 }},
		{"negative body", func(l *Layout) { l.BodySize = -1 }},
		{"no shapes", func(l *Layout) { l.Shapes = nil }},
		{"bad shape", func(l *Layout) { l.Shapes = []GenerationShape{{M: 5, N: 3}} }},
		{"capacity too small", func(l *Layout) { l.Shapes = []GenerationShape{{M: 1, N: 2}} }},
		{"capacity too large", func(l *Layout) { l.PacketSize = MaxRawBytes/l.M() + 1 }},
		{"segment out of bounds", func(l *Layout) {
			l.Ranked = append([]SegmentMeta(nil), l.Ranked...)
			l.Ranked[0].Length = l.BodySize + 1
		}},
		{"accrual out of bounds", func(l *Layout) {
			l.Accrual = append([]SegmentMeta(nil), l.Accrual...)
			l.Accrual[0].OrigOff = -1
		}},
		{"negative accrual score", func(l *Layout) {
			l.Accrual = append([]SegmentMeta(nil), l.Accrual...)
			l.Accrual[0].Score = -0.5
		}},
		{"NaN accrual score", func(l *Layout) {
			// Neither < 0 nor > 1: every ordered comparison lets it by, and
			// the receiver's InfoContent is then NaN for the whole fetch.
			l.Accrual = append([]SegmentMeta(nil), l.Accrual...)
			l.Accrual[len(l.Accrual)-1].Score = math.NaN()
		}},
		{"infinite accrual score", func(l *Layout) {
			l.Accrual = append([]SegmentMeta(nil), l.Accrual...)
			l.Accrual[0].Score = math.Inf(1)
		}},
		{"NaN ranked score", func(l *Layout) {
			l.Ranked = append([]SegmentMeta(nil), l.Ranked...)
			l.Ranked[0].Score = math.NaN()
		}},
		{"negative ranked score", func(l *Layout) {
			l.Ranked = append([]SegmentMeta(nil), l.Ranked...)
			l.Ranked[0].Score = -1e-9
		}},
		{"infinite ranked score", func(l *Layout) {
			l.Ranked = append([]SegmentMeta(nil), l.Ranked...)
			l.Ranked[0].Score = math.Inf(-1)
		}},
		{"hostile accrual mass", func(l *Layout) {
			l.Accrual = append([]SegmentMeta(nil), l.Accrual...)
			l.Accrual[0].Score = 5
		}},
		{"stacked accrual segments", func(l *Layout) {
			// Every unit claims the whole body: units × packets slots.
			l.Accrual = append([]SegmentMeta(nil), l.Accrual...)
			for i := range l.Accrual {
				l.Accrual[i].PermutedOff, l.Accrual[i].OrigOff, l.Accrual[i].Length = 0, 0, l.BodySize
			}
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			bad := plan.Layout()
			tt.mutate(&bad)
			if err := bad.Validate(); err == nil {
				t.Error("invalid layout accepted")
			}
			if _, err := NewReceiverFromLayout(bad); err == nil {
				t.Error("receiver accepted invalid layout")
			}
		})
	}

	// Codec id 1 named the fountain stream before it was systematic: a
	// layout carrying it, off the wire or out of a store, is refused by
	// type rather than decoded under today's generator.
	retired := plan.FountainLayout(7)
	retired.Codec = 1
	if err := retired.Validate(); !errors.Is(err, erasure.ErrUnknownCodec) {
		t.Errorf("codec-1 layout: Validate = %v, want ErrUnknownCodec", err)
	}
}

// TestFountainLayoutGenerationBound: a fountain wire seq packs (gen,
// seq) as gen<<16 | seq, so a layout past MaxFountainGen+1 generations
// would name seqs beyond int32. Validate refuses such a header, and a
// plan that large cooks no fountain frame for its excess generations.
func TestFountainLayoutGenerationBound(t *testing.T) {
	doc, err := document.NewBuilder().
		Paragraph(strings.Repeat("x", packet.MaxFountainGen+2)).
		Build("wide", "Wide")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlanWithScores(doc, nil, Config{PacketSize: 1, MaxGeneration: 1})
	if err != nil {
		t.Fatal(err)
	}
	l := plan.FountainLayout(plan.Digest())
	if len(l.Shapes) <= packet.MaxFountainGen+1 {
		t.Fatalf("plan has %d generations, want more than %d", len(l.Shapes), packet.MaxFountainGen+1)
	}
	if err := l.Validate(); err == nil {
		t.Errorf("fountain layout of %d generations validated", len(l.Shapes))
	}
	if err := plan.Layout().Validate(); err != nil {
		t.Errorf("the fixed-rate layout of the same plan: %v", err)
	}
	if _, err := plan.FountainFrame(plan.Digest(), packet.MaxFountainGen+1, 0); err == nil {
		t.Error("cooked a fountain frame of generation MaxFountainGen+1")
	}
	l.Shapes = l.Shapes[:packet.MaxFountainGen+1]
	l.BodySize = len(l.Shapes)
	l.Ranked, l.Accrual = nil, nil
	if err := l.Validate(); err != nil {
		t.Errorf("fountain layout of exactly %d generations: %v", len(l.Shapes), err)
	}
}

// TestPlanDigestIsTheLayoutSeed: under both codecs the layout's seed is
// the plan's digest, the CRC-64 (ECMA) of the permuted stream, and a
// Vandermonde layout carrying it validates. The same paragraphs ranked
// into the other order are another stream: same geometry, other digest.
func TestPlanDigestIsTheLayoutSeed(t *testing.T) {
	doc, err := document.NewBuilder().
		Paragraph(strings.Repeat("alpha ", 60)).
		Paragraph(strings.Repeat("omega ", 60)).
		Build("two", "Two")
	if err != nil {
		t.Fatal(err)
	}
	paras := doc.Paragraphs()
	plan := func(first int) *Plan {
		scores := map[int]float64{paras[first].ID: 2, paras[1-first].ID: 1}
		p, err := NewPlanWithScores(doc, scores, Config{LOD: document.LODParagraph, PacketSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := plan(0), plan(1)
	want := crc64.Checksum(permutedBody(a), crc64.MakeTable(crc64.ECMA))
	vand, fount := a.Layout(), a.FountainLayout(a.Digest())
	if a.Digest() != want || vand.Seed != want || fount.Seed != want {
		t.Fatalf("digest %#x, layout seeds %#x and %#x, want %#x", a.Digest(), vand.Seed, fount.Seed, want)
	}
	if err := vand.Validate(); err != nil {
		t.Fatalf("a Vandermonde layout carrying its digest: %v", err)
	}
	if b.Digest() == a.Digest() || vand.SameStream(b.Layout()) == nil {
		t.Errorf("the other ranking (digest %#x) passes as the same stream as %#x", b.Digest(), a.Digest())
	}
}

// TestLayoutValidateOffsetOverflow: segment offsets come off the wire, and
// an offset near MaxInt made offset+length wrap negative and pass the
// bounds check. What accepting such a layout costs is spelled out below —
// Reconstruct and the availability index both slice by these offsets.
func TestLayoutValidateOffsetOverflow(t *testing.T) {
	hostile := map[string]SegmentMeta{
		"origOff":     {Label: "1", OrigOff: math.MaxInt, Length: 1},
		"permutedOff": {Label: "1", PermutedOff: math.MaxInt, Length: 1},
		"both":        {Label: "1", OrigOff: math.MaxInt - 3, PermutedOff: math.MaxInt - 3, Length: 8},
	}
	for name, seg := range hostile {
		for _, list := range []string{"ranked", "accrual"} {
			t.Run(list+"/"+name, func(t *testing.T) {
				l := Layout{PacketSize: 8, BodySize: 8, Shapes: []GenerationShape{{M: 1, N: 1}}}
				if list == "ranked" {
					l.Ranked = []SegmentMeta{seg}
				} else {
					l.Accrual = []SegmentMeta{seg}
				}
				if err := l.Validate(); err == nil {
					t.Error("Validate accepted a wrapping segment")
				}
				rcv, err := NewReceiverFromLayout(l)
				if err != nil {
					return
				}
				t.Error("receiver accepted a wrapping segment")
				if err := rcv.Add(0, make([]byte, l.PacketSize)); err != nil {
					t.Fatal(err)
				}
				rcv.InfoContent()
				rcv.Render()
				if _, err := rcv.Reconstruct(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestLayoutClearRawIndex keeps its name from the raw-index mapping
// IsClear was once built on; what it pins is the clear-text predicate
// itself, under both codecs, including seqs outside the layout.
func TestLayoutClearRawIndex(t *testing.T) {
	doc, scores := paperShapedDoc(t)
	plan, err := NewPlanWithScores(doc, scores, Config{MaxGeneration: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Generation g spans cooked [g*12, g*12+12), of which the first 8 are
	// clear; the fountain stream of the same plan has its first 8 seqs
	// clear and every later one a repair.
	l, f := plan.Layout(), plan.FountainLayout(3)
	for g := 0; g < 5; g++ {
		for _, i := range []int{0, 7, 8, 11, 300} {
			if seq := g*12 + i; i < 12 && l.IsClear(seq) != (i < 8) {
				t.Errorf("IsClear(%d) = %v, want %v", seq, l.IsClear(seq), i < 8)
			}
			if seq, _ := f.WireSeq(g, i); f.IsClear(seq) != (i < 8) {
				t.Errorf("fountain IsClear(gen %d, seq %d) = %v, want %v", g, i, f.IsClear(seq), i < 8)
			}
		}
	}
	for _, seq := range []int{-1, l.N()} {
		if l.IsClear(seq) {
			t.Errorf("IsClear(%d) outside the layout", seq)
		}
	}
	if f.IsClear(packet.PackSeq(len(f.Shapes), 0)) {
		t.Error("fountain IsClear past the last generation")
	}
}

func TestReceiverHeld(t *testing.T) {
	doc, scores := paperShapedDoc(t)
	plan, err := NewPlanWithScores(doc, scores, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rcv, err := NewReceiver(plan)
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := plan.CookedPayload(7)
	if err := rcv.Add(7, payload); err != nil {
		t.Fatal(err)
	}
	if !rcv.Held(7) || rcv.Held(8) {
		t.Error("Held misreports packet possession")
	}
}
