package search

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"mobweb/internal/corpus"
	"mobweb/internal/document"
	"mobweb/internal/textproc"
)

func buildDoc(t *testing.T, name, title string, paragraphs ...string) *document.Document {
	t.Helper()
	b := document.NewBuilder()
	b.Open(document.LODSection, "", title)
	for _, p := range paragraphs {
		b.Paragraph(p)
	}
	d, err := b.Build(name, title)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func populated(t *testing.T) *Engine {
	t.Helper()
	e := NewEngine(textproc.Options{})
	docs := []*document.Document{
		buildDoc(t, "mobile.xml", "Mobile Browsing",
			"Mobile web browsing over wireless channels.",
			"Mobile clients browse web documents with limited bandwidth."),
		buildDoc(t, "coding.xml", "Erasure Coding",
			"Vandermonde matrices disperse packets for reconstruction.",
			"Erasure codes recover raw packets from cooked packets."),
		buildDoc(t, "mixed.xml", "Mobile Coding",
			"Mobile devices can decode erasure coded packets.",
			"Wireless transmission benefits from redundancy."),
	}
	for _, d := range docs {
		if err := e.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func TestAddAndLen(t *testing.T) {
	e := populated(t)
	if e.Len() != 3 {
		t.Errorf("Len = %d, want 3", e.Len())
	}
	names := e.Names()
	want := []string{"coding.xml", "mixed.xml", "mobile.xml"}
	for i, n := range want {
		if names[i] != n {
			t.Errorf("Names[%d] = %q, want %q", i, names[i], n)
		}
	}
}

func TestAddNil(t *testing.T) {
	e := NewEngine(textproc.Options{})
	if err := e.Add(nil); err == nil {
		t.Error("nil document accepted")
	}
}

func TestSearchRanksRelevantFirst(t *testing.T) {
	e := populated(t)
	hits := e.Search("mobile web browsing", 10)
	if len(hits) == 0 {
		t.Fatal("no hits")
	}
	if hits[0].Name != "mobile.xml" {
		t.Errorf("top hit = %q, want mobile.xml", hits[0].Name)
	}
	for i := 1; i < len(hits); i++ {
		if hits[i].Score > hits[i-1].Score {
			t.Errorf("hit %d outranks predecessor", i)
		}
	}
	// coding.xml shares no query words → absent.
	for _, h := range hits {
		if h.Name == "coding.xml" {
			t.Error("irrelevant document returned")
		}
	}
}

func TestSearchCarriesQueryVecAndSC(t *testing.T) {
	e := populated(t)
	hits := e.Search("erasure packets", 10)
	if len(hits) == 0 {
		t.Fatal("no hits")
	}
	h := hits[0]
	if h.SC == nil {
		t.Fatal("hit missing SC")
	}
	if len(h.QueryVec) == 0 {
		t.Fatal("hit missing query vector")
	}
	// The query vector must evaluate without error against the SC.
	s := h.SC.Evaluate(h.QueryVec)
	if s.QIC[h.SC.Doc().Root.ID] <= 0 {
		t.Error("QIC of matched document root is zero")
	}
}

func TestSearchLimit(t *testing.T) {
	e := populated(t)
	hits := e.Search("mobile wireless packets", 1)
	if len(hits) != 1 {
		t.Errorf("limit 1 returned %d hits", len(hits))
	}
	if got := e.Search("mobile", 0); got != nil {
		t.Error("limit 0 returned hits")
	}
}

func TestSearchStopWordsOnly(t *testing.T) {
	e := populated(t)
	if hits := e.Search("the of and", 5); len(hits) != 0 {
		t.Errorf("stop-word query returned %d hits", len(hits))
	}
}

func TestSearchNoMatch(t *testing.T) {
	e := populated(t)
	if hits := e.Search("quantum chromodynamics", 5); len(hits) != 0 {
		t.Errorf("unmatched query returned %d hits", len(hits))
	}
}

func TestReAddReplaces(t *testing.T) {
	e := populated(t)
	replacement := buildDoc(t, "mobile.xml", "Replaced",
		"Entirely different content about gardening and botany.")
	if err := e.Add(replacement); err != nil {
		t.Fatal(err)
	}
	if e.Len() != 3 {
		t.Errorf("Len after replace = %d, want 3", e.Len())
	}
	if hits := e.Search("browsing wireless", 5); len(hits) > 0 {
		for _, h := range hits {
			if h.Name == "mobile.xml" {
				t.Error("stale postings still match replaced document")
			}
		}
	}
	hits := e.Search("gardening", 5)
	if len(hits) != 1 || hits[0].Name != "mobile.xml" {
		t.Errorf("replacement not searchable: %v", hits)
	}
}

// TestReAddLeavesNoEmptyPostings: re-indexing a name under fresh
// vocabulary retires the old words from the postings index entirely, so
// the index holds exactly the current documents' keywords however many
// versions came before, and a retired word finds nothing.
func TestReAddLeavesNoEmptyPostings(t *testing.T) {
	e := populated(t)
	word := func(i int) string { return fmt.Sprintf("zq%c%cvoc", 'a'+i/26, 'a'+i%26) }
	for i := 0; i < 100; i++ {
		d := buildDoc(t, "mobile.xml", "Rewritten", "Vocabulary "+word(i)+" replaces the last one.")
		if err := e.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	keywords := make(map[string]bool)
	for _, ent := range e.entries {
		for _, w := range ent.idx.Keywords() {
			keywords[w] = true
		}
	}
	if len(e.posting) != len(keywords) {
		t.Errorf("postings hold %d keywords, the current documents %d", len(e.posting), len(keywords))
	}
	if hits := e.Search(word(0), 5); len(hits) != 0 {
		t.Errorf("retired word %q still finds %v", word(0), hits)
	}
	if hits := e.Search(word(99), 5); len(hits) != 1 || hits[0].Name != "mobile.xml" {
		t.Errorf("current word %q finds %v, want mobile.xml", word(99), hits)
	}
}

// TestReAddMintsHigherVersion: every Add mints a version above all
// before it, Current reads it together with the SC the same Add built,
// and SC agrees with Current.
func TestReAddMintsHigherVersion(t *testing.T) {
	e := populated(t)
	_, last, ok := e.Current("mobile.xml")
	if !ok || last == 0 {
		t.Fatalf("Current(mobile.xml) = version %d, %v", last, ok)
	}
	if _, v, _ := e.Current("coding.xml"); v == last {
		t.Fatal("two documents share a version")
	}
	for i := 0; i < 3; i++ {
		d := buildDoc(t, "mobile.xml", "Replaced", "Gardening and botany, take "+string(rune('a'+i))+".")
		if err := e.Add(d); err != nil {
			t.Fatal(err)
		}
		sc, v, ok := e.Current("mobile.xml")
		if !ok || v <= last {
			t.Fatalf("re-add %d: version %d after %d", i, v, last)
		}
		if sc.Doc() != d {
			t.Fatalf("re-add %d: version %d names the SC of another document", i, v)
		}
		if old, _ := e.SC("mobile.xml"); old != sc {
			t.Fatal("SC and Current disagree")
		}
		last = v
	}
	if _, v, ok := e.Current("missing.xml"); ok || v != 0 {
		t.Errorf("Current(missing.xml) = %d, %v", v, ok)
	}
}

func TestAddXMLAndHTML(t *testing.T) {
	e := NewEngine(textproc.Options{})
	xml := []byte(`<doc><title>X</title><section><paragraph>xml content words</paragraph></section></doc>`)
	if err := e.AddXML("a.xml", xml); err != nil {
		t.Fatal(err)
	}
	html := []byte(`<html><body><h1>H</h1><p>html content words</p></body></html>`)
	if err := e.AddHTML("b.html", html); err != nil {
		t.Fatal(err)
	}
	if e.Len() != 2 {
		t.Errorf("Len = %d, want 2", e.Len())
	}
	if err := e.AddXML("bad.xml", []byte("")); err == nil {
		t.Error("empty XML accepted")
	}
}

func TestSCAccessor(t *testing.T) {
	e := populated(t)
	if _, ok := e.SC("mobile.xml"); !ok {
		t.Error("SC lookup failed for indexed document")
	}
	if _, ok := e.SC("missing.xml"); ok {
		t.Error("SC returned for unknown document")
	}
}

func TestConcurrentSearchAndAdd(t *testing.T) {
	e := populated(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				e.Search("mobile packets", 5)
			}
		}()
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				d := buildDoc(t, "extra.xml", "Extra", "additional mobile wireless text")
				if err := e.Add(d); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSearchTiesBreakByName adds three byte-identical documents to fresh
// engines, in an order that is not their names' order: they score equal,
// so every search must list them by name. The long query gives the
// per-document sums enough terms for their order to show in the bits.
func TestSearchTiesBreakByName(t *testing.T) {
	data, err := corpus.Raw(corpus.DraftName)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 100; trial++ {
		e := NewEngine(textproc.Options{})
		for _, name := range []string{"b.xml", "a.xml", "c.xml"} {
			if err := e.AddXML(name, data); err != nil {
				t.Fatal(err)
			}
		}
		for _, query := range []string{"mobile web browsing", "weakly connected mobile web browsing information content packets"} {
			hits := e.Search(query, -1)
			if len(hits) != 3 {
				t.Fatalf("trial %d, %q: %d hits, want 3", trial, query, len(hits))
			}
			for i, want := range []string{"a.xml", "b.xml", "c.xml"} {
				if hits[i].Name != want {
					t.Fatalf("trial %d, %q: hit %d is %s (score %x), want %s; scores %x %x %x", trial, query, i, hits[i].Name,
						math.Float64bits(hits[i].Score), want,
						math.Float64bits(hits[0].Score), math.Float64bits(hits[1].Score), math.Float64bits(hits[2].Score))
				}
			}
		}
	}
}

// synthDoc generates a seeded research-paper-shaped document of at least
// bodyBytes: an abstract, then sections of two or three subsections of
// two to four paragraphs of 40–99 words — the shape of the fetch
// benchmark's corpus. Every word is a Zipf draw over vocab, half of them
// shifted by an offset per document, so documents share common words
// and differ in topic.
func synthDoc(t *testing.T, r *rand.Rand, zipf *rand.Zipf, vocab []string, d, bodyBytes int) *document.Document {
	t.Helper()
	words := func(n int) string {
		ws := make([]string, n)
		for i := range ws {
			w := int(zipf.Uint64())
			if r.Intn(2) == 0 {
				w = (w + 37*(d+1)) % len(vocab)
			}
			ws[i] = vocab[w]
		}
		return strings.Join(ws, " ")
	}
	b := document.NewBuilder()
	b.Open(document.LODSection, "0", "Abstract")
	size := 0
	para := func() {
		p := words(40 + r.Intn(60))
		b.Paragraph(p)
		size += len(p) + 1
	}
	para()
	for s := 1; size < bodyBytes; s++ {
		b.Open(document.LODSection, fmt.Sprint(s), words(2))
		for sub := 0; sub < 2+r.Intn(2) && size < bodyBytes; sub++ {
			b.Open(document.LODSubsection, fmt.Sprintf("%d.%d", s, sub), words(3))
			for p := 2 + r.Intn(3); p > 0 && size < bodyBytes; p-- {
				para()
			}
		}
	}
	doc, err := b.Build(fmt.Sprintf("doc-%03d.xml", d), words(4))
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestIndexBytesPerDocument bounds what the engine keeps per indexed
// document — the keyword index, the weights and the engine's posting
// lists — at 8 bytes of live heap per body byte, measured as the heap
// growth across adding seeded synthetic 10 KB documents. A string-keyed
// map per keyword and per document costs about 16.
func TestIndexBytesPerDocument(t *testing.T) {
	const docs, docBytes = 40, 10 << 10
	r := rand.New(rand.NewSource(1))
	const cons, vowels = "bdfgklmnprstvz", "aeiou"
	syl := func(i int) string { return string([]byte{cons[i/len(vowels)], vowels[i%len(vowels)]}) }
	vocab := make([]string, 2000)
	for i := range vocab {
		// Two syllables spell i, so words are distinct; every other word
		// is longer.
		vocab[i] = syl(i%70) + syl(i/70)
		if i%2 == 1 {
			vocab[i] += "ta"
		}
	}
	zipf := rand.NewZipf(r, 1.1, 1, uint64(len(vocab)-1))
	built := make([]*document.Document, docs)
	body := 0
	for i := range built {
		built[i] = synthDoc(t, r, zipf, vocab, i, docBytes)
		body += built[i].Size()
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	e := NewEngine(textproc.Options{})
	for _, d := range built {
		if err := e.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(e)
	perByte := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(body)
	keywords, postings := 0, 0
	for _, ent := range e.entries {
		keywords += len(ent.idx.Keywords())
		for k := range ent.idx.Keywords() {
			postings += len(ent.idx.Postings(k))
		}
	}
	t.Logf("%d documents of %d body bytes, %d keywords and %d postings on average: %.1f KB of heap each, %.2f bytes per body byte",
		docs, body/docs, keywords/docs, postings/docs, float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/docs/1024, perByte)
	if perByte > 8 {
		t.Errorf("indexing costs %.2f bytes of heap per body byte, want at most 8", perByte)
	}
}
