package textproc

import (
	"math"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"mobweb/internal/corpus"
	"mobweb/internal/document"
)

func TestTokenize(t *testing.T) {
	tests := []struct {
		name string
		in   string
		want []string
	}{
		{"simple", "Mobile Web Browsing", []string{"mobile", "web", "browsing"}},
		{"punctuation", "weakly-connected, low-bandwidth!", []string{"weakly", "connected", "low", "bandwidth"}},
		{"numbers dropped", "19 2 kbps 2000", []string{"kbps"}},
		{"alnum kept", "gf256 x2", []string{"gf256", "x2"}},
		{"empty", "", nil},
		{"unicode", "naïve café", []string{"naïve", "café"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Tokenize(tt.in); !reflect.DeepEqual(got, tt.want) {
				t.Errorf("Tokenize(%q) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestLemmatizeMergesInflections(t *testing.T) {
	groups := [][]string{
		{"document", "documents"},
		{"browse", "browsing", "browses"},
		{"transmit", "transmitting", "transmitted"},
		{"packet", "packets"},
		{"query", "queries"},
		{"cache", "caches"},
	}
	for _, g := range groups {
		base := Lemmatize(g[0])
		for _, w := range g[1:] {
			if got := Lemmatize(w); got != base {
				t.Errorf("Lemmatize(%q) = %q, want %q (lemma of %q)", w, got, base, g[0])
			}
		}
	}
}

func TestLemmatizeStable(t *testing.T) {
	// Lemmatization must be idempotent on its own output for the words
	// the system cares about.
	for _, w := range []string{"browsing", "documents", "transmissions", "caching", "mobile", "web", "wireless"} {
		once := Lemmatize(w)
		twice := Lemmatize(once)
		if once != twice {
			t.Errorf("Lemmatize not idempotent on %q: %q → %q", w, once, twice)
		}
	}
}

func TestLemmatizeShortWordsUntouched(t *testing.T) {
	for _, w := range []string{"web", "go", "is", "its"} {
		if got := Lemmatize(w); got != w {
			t.Errorf("Lemmatize(%q) = %q, want unchanged", w, got)
		}
	}
}

func TestStopWords(t *testing.T) {
	for _, w := range []string{"the", "and", "of", "is", "however"} {
		if !IsStopWord(w) {
			t.Errorf("IsStopWord(%q) = false, want true", w)
		}
	}
	for _, w := range []string{"mobile", "web", "browsing", "transmission"} {
		if IsStopWord(w) {
			t.Errorf("IsStopWord(%q) = true, want false", w)
		}
	}
	if StopWordCount() < 100 {
		t.Errorf("stop-word inventory %d entries, suspiciously small", StopWordCount())
	}
}

func buildTestDoc(t *testing.T) *document.Document {
	t.Helper()
	b := document.NewBuilder()
	b.Open(document.LODSection, "0", "Abstract")
	b.Paragraph("Mobile web browsing consumes wireless bandwidth. Browsing mobile documents is expensive.")
	b.Open(document.LODSection, "1", "Introduction")
	b.Paragraph("The wireless channel corrupts packets. Packets carry document units.", "packets")
	b.Paragraph("Caching intact packets reduces retransmission cost for mobile clients.")
	d, err := b.Build("test.xml", "Test")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestBuildIndexCounts(t *testing.T) {
	d := buildTestDoc(t)
	idx, err := BuildIndex(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// "mobile" appears 3 times in body text (2 in abstract paragraph,
	// 1 in section 1's second paragraph).
	if got := idx.DocCount("mobile"); got != 3 {
		t.Errorf("DocCount(mobile) = %d, want 3", got)
	}
	// Stop words must be absent.
	if idx.DocCount("the") != 0 {
		t.Error("stop word leaked into the index")
	}
	// Lemmatization merges packet/packets.
	if got := idx.DocCount("packet"); got < 3 {
		t.Errorf("DocCount(packet) = %d, want >= 3 (merged inflections)", got)
	}
	if idx.DocCount("packets") != 0 {
		t.Error("unlemmatized form present in index")
	}
}

func TestBuildIndexAggregationAdditive(t *testing.T) {
	d := buildTestDoc(t)
	idx, err := BuildIndex(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Root counts must equal document counts for every keyword.
	rootID := d.Root.ID
	for k, w := range idx.Keywords() {
		if c, got := idx.Count(k), idx.UnitCount(rootID, w); got != c {
			t.Errorf("root count of %q = %d, want %d", w, got, c)
		}
	}
	// Parent counts equal sum of child counts plus own text (units here
	// have no own body text beyond titles).
	for _, u := range d.Units() {
		if u.IsLeaf() {
			continue
		}
		for _, w := range idx.Keywords() {
			sum := 0
			for _, c := range u.Children {
				sum += idx.UnitCount(c.ID, w)
			}
			own := idx.UnitCount(u.ID, w) - sum
			if own < 0 {
				t.Errorf("unit %q keyword %q: children exceed parent", u.Label, w)
			}
		}
	}
}

// unitRecount counts each keyword of idx in every unit's subtree afresh,
// one unit at a time: the per-unit maps the postings replace.
func unitRecount(d *document.Document, idx *Index) map[int]map[string]int {
	out := make(map[int]map[string]int)
	for _, u := range d.Units() {
		counts := make(map[string]int)
		u.Walk(func(v *document.Unit) bool {
			for _, source := range []string{v.Title, v.Text} {
				for _, w := range Tokenize(source) {
					lemma := Lemmatize(w)
					if IsStopWord(w) || IsStopWord(lemma) || idx.DocCount(lemma) == 0 {
						continue
					}
					counts[lemma]++
				}
			}
			return true
		})
		out[u.ID] = counts
	}
	return out
}

func TestPostingsMatchUnitRecount(t *testing.T) {
	docs, err := corpus.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	docs = append(docs, buildTestDoc(t))
	for _, d := range docs {
		for _, minFreq := range []int{0, 3} {
			idx, err := BuildIndex(d, Options{MinFrequency: minFreq})
			if err != nil {
				t.Fatal(err)
			}
			want := unitRecount(d, idx)
			for k, w := range idx.Keywords() {
				ps := idx.Postings(k)
				if idx.Count(k) == 0 {
					t.Errorf("%s: postings for %q, which is no keyword", d.Name, w)
				}
				for i, p := range ps {
					if i > 0 && p.Unit <= ps[i-1].Unit {
						t.Fatalf("%s %q: postings out of unit order at %d: %v", d.Name, w, i, ps)
					}
					if int(p.Count) != want[int(p.Unit)][w] || p.Count == 0 {
						t.Errorf("%s %q unit %d: posting count %d, recount %d", d.Name, w, p.Unit, p.Count, want[int(p.Unit)][w])
					}
				}
			}
			total := 0
			for id, counts := range want {
				for w, c := range counts {
					if got := idx.UnitCount(id, w); got != c {
						t.Errorf("%s: UnitCount(%d, %q) = %d, recount %d", d.Name, id, w, got, c)
					}
				}
				total += len(counts)
			}
			posted, keywords := 0, len(idx.Keywords())
			for k := range keywords {
				posted += len(idx.Postings(k))
			}
			if posted != total || keywords != len(want[d.Root.ID]) {
				t.Errorf("%s: %d postings over %d keywords, recount has %d over %d", d.Name, posted, keywords, total, len(want[d.Root.ID]))
			}
		}
	}
}

func TestUnitCountOutsideDocument(t *testing.T) {
	d := buildTestDoc(t)
	idx, err := BuildIndex(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ids := []int{-1, len(d.Units()), math.MaxInt, math.MinInt}
	if strconv.IntSize == 64 {
		// Positive, with its low 32 bits zero: a lookup that truncates
		// to int32 would read it as the root.
		ids = append(ids, math.MaxInt&^math.MaxUint32)
	}
	for _, id := range ids {
		if got := idx.UnitCount(id, "mobile"); got != 0 {
			t.Errorf("UnitCount(%d, mobile) = %d, want 0", id, got)
		}
	}
	if got := idx.UnitCount(d.Root.ID, "no-such-keyword"); got != 0 {
		t.Errorf("UnitCount of an absent keyword = %d, want 0", got)
	}
}

func TestBuildIndexTitlesCount(t *testing.T) {
	d := buildTestDoc(t)
	idx, err := BuildIndex(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// "Introduction" appears only as a section title; the recognizer must
	// include it.
	if got := idx.DocCount(Lemmatize("introduction")); got != 1 {
		t.Errorf("title word count = %d, want 1", got)
	}
}

func TestBuildIndexMinFrequency(t *testing.T) {
	d := buildTestDoc(t)
	idx, err := BuildIndex(d, Options{MinFrequency: 2})
	if err != nil {
		t.Fatal(err)
	}
	// "retransmission" occurs once → excluded at MinFrequency 2.
	if idx.DocCount(Lemmatize("retransmission")) != 0 {
		t.Error("singleton word survived MinFrequency=2")
	}
	// "mobile" occurs 3 times → kept.
	if idx.DocCount("mobile") == 0 {
		t.Error("frequent word dropped")
	}
}

func TestBuildIndexEmphasizedOverridesFrequency(t *testing.T) {
	d := buildTestDoc(t)
	idx, err := BuildIndex(d, Options{MinFrequency: 99})
	if err != nil {
		t.Fatal(err)
	}
	// Only the emphasized word survives an impossible frequency bar.
	if idx.DocCount("packet") == 0 {
		t.Error("emphasized word did not qualify as keyword")
	}
	if idx.DocCount("mobile") != 0 {
		t.Error("non-emphasized word qualified despite frequency bar")
	}
}

func TestBuildIndexNilDocument(t *testing.T) {
	if _, err := BuildIndex(nil, Options{}); err == nil {
		t.Error("nil document accepted")
	}
}

func TestQueryVector(t *testing.T) {
	v := QueryVector("browsing Mobile web")
	want := map[string]int{Lemmatize("browsing"): 1, "mobile": 1, "web": 1}
	if !reflect.DeepEqual(v, want) {
		t.Errorf("QueryVector = %v, want %v", v, want)
	}
}

func TestQueryVectorRepeatsCount(t *testing.T) {
	v := QueryVector("mobile mobile web")
	if v["mobile"] != 2 {
		t.Errorf("repeated query word count = %d, want 2", v["mobile"])
	}
	if v["web"] != 1 {
		t.Errorf("web count = %d, want 1", v["web"])
	}
}

func TestQueryVectorDropsStopWords(t *testing.T) {
	v := QueryVector("the of and")
	if len(v) != 0 {
		t.Errorf("stop-word-only query produced %v", v)
	}
}

func TestNormalizeWord(t *testing.T) {
	if got := NormalizeWord(" Browsing "); got != Lemmatize("browsing") {
		t.Errorf("NormalizeWord = %q", got)
	}
	if got := NormalizeWord("  "); got != "" {
		t.Errorf("NormalizeWord(blank) = %q, want empty", got)
	}
}

func TestKeywordsList(t *testing.T) {
	d := buildTestDoc(t)
	idx, err := BuildIndex(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ks, want := idx.Keywords(), len(unitRecount(d, idx)[d.Root.ID])
	if len(ks) != want {
		t.Errorf("Keywords() returned %d entries, want %d", len(ks), want)
	}
	if !sort.StringsAreSorted(ks) {
		t.Errorf("Keywords() not sorted: %v", ks)
	}
}

func BenchmarkBuildIndex(b *testing.B) {
	bd := document.NewBuilder()
	for s := 0; s < 5; s++ {
		bd.Open(document.LODSection, "", "Section heading about mobile transmission")
		for p := 0; p < 4; p++ {
			bd.Paragraph("The mobile client browses web documents over a weakly connected wireless channel and caches intact cooked packets across retransmission rounds to reconstruct the original document sooner.")
		}
	}
	d, err := bd.Build("bench", "Bench")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildIndex(d, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
