package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash/crc64"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"mobweb/internal/content"
	"mobweb/internal/corpus"
	"mobweb/internal/document"
	"mobweb/internal/erasure"
	"mobweb/internal/markup"
	"mobweb/internal/textproc"
)

// permutedBody is the permuted body as plans built it before they held
// the document once: the whole body rendered, then each ranked unit's
// extent copied out in transmission order.
func permutedBody(p *Plan) []byte {
	body := p.Doc().Body()
	out := make([]byte, 0, len(body))
	for _, s := range p.Segments() {
		out = append(out, body[s.OrigOff:s.OrigOff+s.Length]...)
	}
	return out
}

// splitPackets is how plans packetized before their raw packets were
// views of one stream: m packets of sp bytes each, copied out of payload,
// the last zero-padded.
func splitPackets(payload []byte, m, sp int) [][]byte {
	raw := make([][]byte, m)
	for i := range raw {
		raw[i] = make([]byte, sp)
		if lo := i * sp; lo < len(payload) {
			copy(raw[i], payload[lo:min(lo+sp, len(payload))])
		}
	}
	return raw
}

// rawPackets returns the plan's raw packets in order, across generations.
func rawPackets(p *Plan) [][]byte {
	var raw [][]byte
	for _, g := range p.gens {
		raw = append(raw, g.raw...)
	}
	return raw
}

// checkStream holds a plan's raw packets to the oracle: M packets, each a
// view of exactly sp bytes, equal to the split of the permuted body, with
// the digest its CRC-64.
func checkStream(t *testing.T, name string, p *Plan) {
	t.Helper()
	sp, permuted := p.Config().PacketSize, permutedBody(p)
	raw := rawPackets(p)
	want := splitPackets(permuted, p.M(), sp)
	if len(raw) != len(want) || p.M() != erasure.PacketsFor(len(permuted), sp) {
		t.Fatalf("%s: %d raw packets, M = %d, want %d", name, len(raw), p.M(), len(want))
	}
	for i := range raw {
		if len(raw[i]) != sp || cap(raw[i]) != sp {
			t.Fatalf("%s: raw packet %d has len %d, cap %d; want both %d", name, i, len(raw[i]), cap(raw[i]), sp)
		}
		if !bytes.Equal(raw[i], want[i]) {
			t.Fatalf("%s: raw packet %d differs from the split of the permuted body", name, i)
		}
	}
	if p.BodySize() != len(permuted) || p.Digest() != crc64.Checksum(permuted, digestTable) {
		t.Fatalf("%s: body size %d, digest %#x; want %d bytes under their CRC-64", name, p.BodySize(), p.Digest(), len(permuted))
	}
}

// TestPlanStreamMatchesSplit: for every bundled document, LOD and packet
// size, with and without a query, the raw packets are the split of the
// permuted body, and the digest and the layout's binary encoding are the
// ones pinned in testdata/planstream.golden (go test -run
// TestPlanStreamMatchesSplit -update rewrites it).
func TestPlanStreamMatchesSplit(t *testing.T) {
	docs, err := corpus.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	var golden strings.Builder
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
			for _, sp := range []int{64, 256, 1000} {
				for _, query := range []string{"", "mobile web browsing"} {
					cfg := Config{LOD: lod, Notion: content.NotionQIC, PacketSize: sp}
					p, err := NewPlan(sc, textproc.QueryVector(query), cfg)
					if err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("%s %v sp=%d q=%q", doc.Name, lod, sp, query)
					checkStream(t, name, p)
					bin, err := p.Layout().MarshalBinary()
					if err != nil {
						t.Fatal(err)
					}
					fmt.Fprintf(&golden, "%s digest=%016x layout=%x\n", name, p.Digest(), sha256.Sum256(bin))
				}
			}
		}
	}
	const path = "testdata/planstream.golden"
	if *updateVector {
		if err := os.WriteFile(path, []byte(golden.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := golden.String(); got != string(want) {
		t.Errorf("digests or layouts moved:\n got %s\nwant %s", got, want)
	}
}

// TestPlanRawRoundTrip: payload → packets → payload. A document's
// permuted body, however its paragraphs are ranked and cut, comes back
// from the raw packets trimmed to the body size, and the tail past it is
// zero.
func TestPlanRawRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := document.NewBuilder()
		for i := 1 + rng.Intn(12); i > 0; i-- {
			text := make([]byte, rng.Intn(90))
			rng.Read(text)
			b.Paragraph(string(text))
		}
		doc, err := b.Build("fuzzed", "")
		if err != nil {
			return false
		}
		scores := make(map[int]float64)
		for _, u := range doc.Units() {
			scores[u.ID] = float64(rng.Intn(4))
		}
		sp := 1 + rng.Intn(64)
		p, err := NewPlanWithScores(doc, scores, Config{LOD: document.LODParagraph, PacketSize: sp, MaxGeneration: 1 + rng.Intn(8)})
		if err != nil {
			return false
		}
		joined := bytes.Join(rawPackets(p), nil)
		return len(joined) == p.M()*sp &&
			bytes.Equal(joined[:p.BodySize()], permutedBody(p)) &&
			bytes.Count(joined[p.BodySize():], []byte{0}) == len(joined)-p.BodySize()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPlanRawPadsFinalPacket: a body that does not fill its last packet
// ends in zero padding, and every raw packet is exactly sp bytes.
func TestPlanRawPadsFinalPacket(t *testing.T) {
	b := document.NewBuilder()
	b.Paragraph("abcde")
	doc, err := b.Build("pad", "")
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlanWithScores(doc, nil, Config{LOD: document.LODParagraph, PacketSize: 4, MaxGeneration: 8})
	if err != nil {
		t.Fatal(err)
	}
	raw := rawPackets(p)
	if p.BodySize() != 6 || len(raw) != 2 {
		t.Fatalf("body %d bytes in %d packets, want 6 in 2", p.BodySize(), len(raw))
	}
	if !bytes.Equal(raw[0], []byte("abcd")) {
		t.Errorf("raw[0] = %q", raw[0])
	}
	if !bytes.Equal(raw[1], []byte{'e', '\n', 0, 0}) {
		t.Errorf("raw[1] = %q, want e, newline, then zero padding", raw[1])
	}
}

// benchShapedSC parses a research-paper-shaped document whose body is
// exactly 32 KiB — sections of three subsections of three paragraphs of
// 40 to 100 words, as the bench corpus cuts them — and builds its SC.
func benchShapedSC(t testing.TB) *content.SC {
	t.Helper()
	const size = 32 << 10
	rng := rand.New(rand.NewSource(1))
	words := strings.Fields("mobile web browsing weak channel packet erasure code unit section paragraph query relevance wireless bandwidth transmission document content structure level detail")
	var paras []string
	for remaining := size; remaining > 0; {
		ws := make([]string, 40+rng.Intn(60))
		for i := range ws {
			ws[i] = words[rng.Intn(len(words))]
		}
		text := strings.Join(ws, " ")
		if remaining-(len(text)+1) < 200 {
			// The last paragraph fills the body exactly; it ends on a
			// letter, which the parser does not trim.
			text = strings.Repeat("x", remaining-1)
		}
		paras = append(paras, text)
		remaining -= len(text) + 1
	}
	var xml strings.Builder
	xml.WriteString(`<paper><title>Bench</title>`)
	for i, text := range paras {
		if i%9 == 0 {
			xml.WriteString(`<section><title>S</title>`)
		}
		if i%3 == 0 {
			xml.WriteString(`<subsection><title>T</title>`)
		}
		fmt.Fprintf(&xml, "<p>%s</p>", text)
		if i%3 == 2 || i == len(paras)-1 {
			xml.WriteString(`</subsection>`)
		}
		if i%9 == 8 || i == len(paras)-1 {
			xml.WriteString(`</section>`)
		}
	}
	xml.WriteString(`</paper>`)
	doc, err := markup.ParseXML(strings.NewReader(xml.String()), "bench.xml", markup.DefaultTagMap())
	if err != nil {
		t.Fatal(err)
	}
	if doc.Size() != size {
		t.Fatalf("bench-shaped body is %d bytes, want %d", doc.Size(), size)
	}
	idx, err := textproc.BuildIndex(doc, textproc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := content.Build(doc, idx)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestNewPlanAllocatesTheBodyOnce: building a plan of a 32 KB document
// costs at most 1.5 times its body in allocated bytes — one stream, and
// the ranking and segment bookkeeping beside it.
func TestNewPlanAllocatesTheBodyOnce(t *testing.T) {
	sc := benchShapedSC(t)
	query := textproc.QueryVector("mobile channel relevance")
	cfg := Config{LOD: document.LODParagraph, Notion: content.NotionQIC}
	// The first build also makes the process-wide shared coders.
	if _, err := NewPlan(sc, query, cfg); err != nil {
		t.Fatal(err)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := NewPlan(sc, query, cfg); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perPlan := float64(after.TotalAlloc-before.TotalAlloc) / runs
	body := float64(sc.Doc().Size())
	t.Logf("NewPlan allocates %.0f B for a %.0f B body (%.2f×)", perPlan, body, perPlan/body)
	if perPlan > 1.5*body {
		t.Errorf("NewPlan allocates %.0f B, %.2f times the %.0f B body; want at most 1.5", perPlan, perPlan/body, body)
	}
}

// tiles reports whether the units at lod tile the body: consecutive
// extents from 0 to its end, the condition under which a plan builds.
func tiles(doc *document.Document, lod document.LOD) bool {
	units, err := doc.UnitsAt(lod)
	if err != nil {
		return false
	}
	end := 0
	for _, u := range units {
		if u.Start != end {
			return false
		}
		end = u.End
	}
	return end == doc.Size()
}

// FuzzPlanStream: a plan built from any markup that parses, at every LOD,
// under fuzzed scores and packet size, holds exactly the split of its
// Body()-rendered permuted body; and whenever the units tile the body,
// the plan builds.
func FuzzPlanStream(f *testing.F) {
	for _, name := range corpus.Names() {
		raw, err := corpus.Raw(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw, strings.HasSuffix(name, ".html"), uint8(255), int64(1))
	}
	f.Add([]byte(`<paper><section><title>S</title>lead<p>a</p><p/></section></paper>`), false, uint8(2), int64(0))
	f.Add([]byte(`<html><h1>T</h1><p>one</p><h2>U</h2><p>two</p></html>`), true, uint8(0), int64(3))

	f.Fuzz(func(t *testing.T, src []byte, html bool, spByte uint8, seed int64) {
		var doc *document.Document
		var err error
		if html {
			doc, err = markup.ParseHTML(bytes.NewReader(src), "fuzz.html")
		} else {
			doc, err = markup.ParseXML(bytes.NewReader(src), "fuzz.xml", markup.DefaultTagMap())
		}
		if err != nil {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		scores := make(map[int]float64)
		for _, u := range doc.Units() {
			scores[u.ID] = float64(rng.Intn(5))
		}
		for _, lod := range document.AllLODs() {
			p, err := NewPlanWithScores(doc, scores, Config{LOD: lod, PacketSize: 1 + int(spByte)})
			if err != nil {
				if tiles(doc, lod) {
					t.Fatalf("%v: units tile the body, yet the plan fails: %v", lod, err)
				}
				continue
			}
			checkStream(t, lod.String(), p)
		}
	})
}
