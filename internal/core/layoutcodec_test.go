package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"mobweb/internal/content"
	"mobweb/internal/corpus"
	"mobweb/internal/document"
	"mobweb/internal/erasure"
	"mobweb/internal/textproc"
)

var updateVector = flag.Bool("update", false, "rewrite the pinned layout vector and plan stream digests under testdata/")

// sameLayout is reflect.DeepEqual with scores compared by their bits: a
// NaN score must survive the codec too, and NaN != NaN.
func sameLayout(a, b Layout) bool {
	strip := func(l Layout) (Layout, []uint64) {
		var bits []uint64
		lists := [2]*[]SegmentMeta{&l.Ranked, &l.Accrual}
		for _, list := range lists {
			if *list == nil {
				continue
			}
			segs := append([]SegmentMeta{}, *list...)
			for i := range segs {
				bits = append(bits, math.Float64bits(segs[i].Score))
				segs[i].Score = 0
			}
			*list = segs
		}
		return l, bits
	}
	la, ba := strip(a)
	lb, bb := strip(b)
	return reflect.DeepEqual(la, lb) && reflect.DeepEqual(ba, bb)
}

// roundTrip pushes l through the binary form and back.
func roundTrip(t testing.TB, l Layout) Layout {
	t.Helper()
	data, err := l.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Layout
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatalf("decoding what MarshalBinary wrote: %v", err)
	}
	return back
}

// corpusPlans builds one plan per corpus document × LOD with real
// keyword-derived scores, plus a 64 KB synthetic document that needs more
// than one generation.
func corpusPlans(t testing.TB) map[string]*Plan {
	t.Helper()
	plans := make(map[string]*Plan)
	docs, err := corpus.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	qv := textproc.QueryVector("mobile web browsing")
	for _, doc := range docs {
		idx, err := textproc.BuildIndex(doc, textproc.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sc, err := content.Build(doc, idx)
		if err != nil {
			t.Fatal(err)
		}
		for _, lod := range document.AllLODs() {
			plan, err := NewPlan(sc, qv, Config{LOD: lod, Notion: content.NotionQIC})
			if err != nil {
				t.Fatal(err)
			}
			plans[doc.Name+"/"+lod.String()] = plan
		}
	}
	plans["large/paragraph"] = largePlan(t)
	return plans
}

// largePlan is a 64 KB, 128-paragraph document with section titles: two
// generations at the default packet size and γ.
func largePlan(t testing.TB) *Plan {
	t.Helper()
	b := document.NewBuilder()
	for s := 0; s < 8; s++ {
		b.Open(document.LODSection, "", fmt.Sprintf("Section %d: weakly-connected browsing", s+1))
		for ss := 0; ss < 2; ss++ {
			b.Open(document.LODSubsection, "", fmt.Sprintf("Part %d.%d", s+1, ss+1))
			for p := 0; p < 8; p++ {
				b.Paragraph(strings.Repeat("x", 511))
			}
			b.Close()
		}
		b.Close()
	}
	doc, err := b.Build("large", "Large")
	if err != nil {
		t.Fatal(err)
	}
	scores := make(map[int]float64)
	paras := doc.Paragraphs()
	for i, p := range paras {
		scores[p.ID] = float64(i+1) / float64(len(paras)*(len(paras)+1)/2)
	}
	plan, err := NewPlanWithScores(doc, scores, Config{LOD: document.LODParagraph})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Layout().Shapes) < 2 {
		t.Fatalf("large plan has %d generations, want >= 2", len(plan.Layout().Shapes))
	}
	return plan
}

// TestLayoutBinaryRoundTrip: every real plan's layout, under both codecs,
// survives the binary and the text form field for field and score bit for
// score bit, and still validates.
func TestLayoutBinaryRoundTrip(t *testing.T) {
	for name, plan := range corpusPlans(t) {
		for _, lo := range []Layout{plan.Layout(), plan.FountainLayout(0xfeedfacecafebeef)} {
			t.Run(name+"/"+lo.Codec.String(), func(t *testing.T) {
				back := roundTrip(t, lo)
				if !sameLayout(back, lo) {
					t.Fatalf("binary round trip changed the layout:\n got %+v\nwant %+v", back, lo)
				}
				if err := back.Validate(); err != nil {
					t.Fatalf("round-tripped layout invalid: %v", err)
				}
				text, err := lo.MarshalText()
				if err != nil {
					t.Fatal(err)
				}
				var viaText Layout
				if err := viaText.UnmarshalText(text); err != nil {
					t.Fatal(err)
				}
				if !sameLayout(viaText, lo) {
					t.Fatal("text round trip changed the layout")
				}
			})
		}
	}
}

// TestLayoutBinaryCarriesHostileValues: the codec refuses nothing Validate
// is there to refuse — negative sizes, wrapping offsets, NaN scores all
// arrive as sent, so the verdict is Validate's and is the same whichever
// way the layout travelled.
func TestLayoutBinaryCarriesHostileValues(t *testing.T) {
	hostile := Layout{
		PacketSize: -1,
		BodySize:   math.MinInt,
		Shapes:     []GenerationShape{{M: -1, N: 300}, {M: math.MaxInt, N: 0}},
		Ranked: []SegmentMeta{
			{Label: "1", Title: "t", Level: -3, Score: math.NaN(), PermutedOff: math.MaxInt - 3, OrigOff: math.MinInt, Length: 8},
			{Label: "", Score: math.Inf(-1), PermutedOff: -1, OrigOff: math.MaxInt, Length: -1},
		},
		Accrual: []SegmentMeta{{Label: "a", Score: math.Copysign(0, -1), Length: math.MaxInt}},
		Codec:   erasure.CodecID(200),
		Seed:    math.MaxUint64,
	}
	if back := roundTrip(t, hostile); !sameLayout(back, hostile) {
		t.Fatalf("hostile layout changed in transit:\n got %+v\nwant %+v", back, hostile)
	}
}

// TestLayoutBinaryRefuses: what the decoder cannot frame is an error and
// leaves the target untouched — never a panic, never a large allocation.
func TestLayoutBinaryRefuses(t *testing.T) {
	doc, scores := paperShapedDoc(t)
	plan, err := NewPlanWithScores(doc, scores, Config{LOD: document.LODParagraph})
	if err != nil {
		t.Fatal(err)
	}
	good, err := plan.Layout().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	refused := func(t *testing.T, data []byte) {
		t.Helper()
		l := Layout{PacketSize: 7}
		if err := l.UnmarshalBinary(data); err == nil {
			t.Fatal("accepted")
		}
		if !reflect.DeepEqual(l, Layout{PacketSize: 7}) {
			t.Errorf("failed decode modified the target: %+v", l)
		}
	}
	t.Run("empty", func(t *testing.T) { refused(t, nil) })
	t.Run("unknown version", func(t *testing.T) {
		refused(t, append([]byte{layoutVersion + 1}, good[1:]...))
	})
	t.Run("legacy JSON", func(t *testing.T) { refused(t, []byte(`{"packetSize":256,"bodySize":10240}`)) })
	t.Run("trailing byte", func(t *testing.T) { refused(t, append(good[:len(good):len(good)], 0)) })
	t.Run("every truncation", func(t *testing.T) {
		for n := 0; n < len(good); n++ {
			refused(t, good[:n])
		}
	})
	t.Run("bad base64", func(t *testing.T) {
		var l Layout
		if err := l.UnmarshalText([]byte("AQ!!")); err == nil {
			t.Fatal("accepted")
		}
	})
	t.Run("hostile counts allocate nothing", func(t *testing.T) {
		// A header, then a count of shapes / segments / label bytes with
		// nothing behind it: 2^62 would fail any make, 2^24 would quietly
		// cost up to a gigabyte if the count were believed.
		head := []byte{layoutVersion, 8, 8, 0, 0}
		for _, count := range []uint64{1 << 24, 1 << 62} {
			huge := binary.AppendUvarint(nil, count)
			for name, data := range map[string][]byte{
				"shapes":   append(append([]byte{}, head...), huge...),
				"segments": append(append([]byte{}, head...), append([]byte{0}, huge...)...),
				"label":    append(append([]byte{}, head...), append([]byte{0, 1}, huge...)...),
			} {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				refused(t, data)
				runtime.ReadMemStats(&after)
				if spent := after.TotalAlloc - before.TotalAlloc; spent > 16<<10 {
					t.Errorf("%s ×%d: %d bytes allocated to refuse %d bytes of input", name, count, spent, len(data))
				}
			}
		}
	})
}

// TestLayoutVectorV1 pins version 1 of the encoding to committed bytes: a
// change to the format is a change to testdata/layout_v1.bin, reviewed as
// such (and a reason to bump layoutVersion, since stores hold these bytes).
func TestLayoutVectorV1(t *testing.T) {
	want := Layout{
		PacketSize: 256,
		BodySize:   1000,
		Shapes:     []GenerationShape{{M: 3, N: 5}, {M: 1, N: 2}},
		Ranked: []SegmentMeta{
			{Label: "2", Title: "Results", Level: document.LODSection, Score: 0.75, PermutedOff: 0, OrigOff: 400, Length: 600},
			{Label: "1", Title: "Introduction", Level: document.LODSection, Score: 0.25, PermutedOff: 600, OrigOff: 0, Length: 400},
		},
		Accrual: []SegmentMeta{
			{Label: "1.1", Level: document.LODParagraph, Score: 0.125, PermutedOff: 600, OrigOff: 0, Length: 150},
			{Label: "1.2", Level: document.LODParagraph, Score: 0.125, PermutedOff: 750, OrigOff: 150, Length: 250},
			{Label: "2.1", Level: document.LODParagraph, Score: 0.5, PermutedOff: 0, OrigOff: 400, Length: 300},
			{Label: "2.2", Level: document.LODParagraph, Score: 0.25, PermutedOff: 300, OrigOff: 700, Length: 300},
		},
		Codec: erasure.CodecFountain,
		Seed:  0x0123456789abcdef,
	}
	if err := want.Validate(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "layout_v1.bin")
	got, err := want.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if *updateVector {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pinned, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading the pinned vector (write it with -update): %v", err)
	}
	if !bytes.Equal(got, pinned) {
		t.Errorf("encoding changed:\n got %x\nwant %x", got, pinned)
	}
	var back Layout
	if err := back.UnmarshalBinary(pinned); err != nil {
		t.Fatalf("decoding the pinned vector: %v", err)
	}
	if !sameLayout(back, want) {
		t.Errorf("pinned vector decodes to %+v, want %+v", back, want)
	}
}

// The layout as it was serialized before the binary encoding — reflected
// JSON over these tags — kept here only so TestHeaderSize has the old size
// to hold the new one against.
type (
	jsonSegment struct {
		Label       string       `json:"label"`
		Title       string       `json:"title,omitempty"`
		Level       document.LOD `json:"level"`
		Score       float64      `json:"score"`
		PermutedOff int          `json:"permutedOff"`
		OrigOff     int          `json:"origOff"`
		Length      int          `json:"length"`
	}
	jsonShape struct {
		M int `json:"m"`
		N int `json:"n"`
	}
	jsonLayout struct {
		PacketSize int             `json:"packetSize"`
		BodySize   int             `json:"bodySize"`
		Shapes     []jsonShape     `json:"shapes"`
		Ranked     []jsonSegment   `json:"ranked"`
		Accrual    []jsonSegment   `json:"accrual"`
		Codec      erasure.CodecID `json:"codec,omitempty"`
		Seed       uint64          `json:"seed,omitempty"`
	}
)

func oldJSONSize(t testing.TB, l Layout) int {
	t.Helper()
	old := jsonLayout{PacketSize: l.PacketSize, BodySize: l.BodySize, Codec: l.Codec, Seed: l.Seed}
	for _, s := range l.Shapes {
		old.Shapes = append(old.Shapes, jsonShape(s))
	}
	for _, s := range l.Ranked {
		old.Ranked = append(old.Ranked, jsonSegment(s))
	}
	for _, s := range l.Accrual {
		old.Accrual = append(old.Accrual, jsonSegment(s))
	}
	data, err := json.Marshal(old)
	if err != nil {
		t.Fatal(err)
	}
	return len(data)
}

// TestHeaderSize holds the header to ROADMAP item 1's byte gate on the
// layouts the benchmark sends: the paper's Table 2 document (10 240 B, 20
// paragraphs) as one ranked unit — 600 B at most — and ranked by
// paragraph, and a multi-generation document ranked by paragraph, each at
// most 22 % of the JSON it replaced. The ratio is a property of scored
// segments (an 8-byte score against seventeen decimal digits): a layout
// whose paragraphs mostly score 0, as a corpus document's do under an
// unrelated query, spends one JSON byte per score and lands nearer 24 %.
func TestHeaderSize(t *testing.T) {
	doc, scores := paperShapedDoc(t)
	plans := map[string]*Plan{"large/paragraph": largePlan(t)}
	for _, lod := range []document.LOD{document.LODDocument, document.LODParagraph} {
		plan, err := NewPlanWithScores(doc, scores, Config{LOD: lod})
		if err != nil {
			t.Fatal(err)
		}
		plans["table2/"+lod.String()] = plan
	}
	for name, plan := range plans {
		lo := plan.Layout()
		bin, err := lo.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		old := oldJSONSize(t, lo)
		t.Logf("%-16s %5d B JSON → %4d B binary (%.1f %%)", name, old, len(bin), 100*float64(len(bin))/float64(old))
		if float64(len(bin)) > 0.22*float64(old) {
			t.Errorf("%s: binary layout is %d B, more than 22 %% of the %d B JSON form", name, len(bin), old)
		}
		if name == "table2/document" && len(bin) > 600 {
			t.Errorf("Table 2 layout is %d B, over the 600 B gate", len(bin))
		}
	}
}

// FuzzLayoutBinary: arbitrary bytes never panic the decoder and never
// make it build more than the input could describe; whatever decodes
// re-encodes to bytes that decode to the same layout.
func FuzzLayoutBinary(f *testing.F) {
	doc, scores := paperShapedDoc(f)
	plan, err := NewPlanWithScores(doc, scores, Config{LOD: document.LODSection, MaxGeneration: 16})
	if err != nil {
		f.Fatal(err)
	}
	for _, lo := range []Layout{
		plan.Layout(),
		plan.FountainLayout(5),
		{PacketSize: 8, BodySize: 8, Shapes: []GenerationShape{{M: 1, N: 1}}, Ranked: []SegmentMeta{{Label: "1", Score: math.NaN(), OrigOff: math.MaxInt, Length: 1}}},
		{},
	} {
		data, err := lo.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte(`{"packetSize":8}`))
	f.Add(append([]byte{layoutVersion, 8, 8, 0, 0}, binary.AppendUvarint(nil, 1<<62)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		var lo Layout
		if lo.UnmarshalBinary(data) != nil {
			return
		}
		// Every shape and segment the decoder built was paid for in input
		// bytes, so what it allocates is a small multiple of len(data).
		if len(lo.Shapes) > len(data)/minShapeBytes || len(lo.Ranked)+len(lo.Accrual) > len(data)/minSegmentBytes {
			t.Fatalf("%d bytes decoded to %d shapes, %d+%d segments", len(data), len(lo.Shapes), len(lo.Ranked), len(lo.Accrual))
		}
		again, err := lo.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var back Layout
		if err := back.UnmarshalBinary(again); err != nil {
			t.Fatalf("re-encoded layout does not decode: %v", err)
		}
		if !sameLayout(back, lo) {
			t.Fatalf("re-encoding changed the layout:\n got %+v\nwant %+v", back, lo)
		}
	})
}
