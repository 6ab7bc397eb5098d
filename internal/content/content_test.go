package content

import (
	"math"
	"testing"

	"mobweb/internal/corpus"
	"mobweb/internal/document"
	"mobweb/internal/textproc"
)

const epsilon = 1e-9

// paperDoc builds a small research-paper-shaped document with distinct
// keyword distributions per section, so ranking behaviour is observable.
func paperDoc(t testing.TB) (*document.Document, *textproc.Index, *SC) {
	t.Helper()
	b := document.NewBuilder()
	b.Open(document.LODSection, "0", "Abstract")
	b.Paragraph("Mobile web browsing over weakly connected wireless channels wastes bandwidth when documents are irrelevant.")
	b.Open(document.LODSection, "1", "Introduction")
	b.Paragraph("Mobile clients browse web documents. Mobile environments corrupt transmission.")
	b.Paragraph("Search engines return irrelevant documents that waste wireless bandwidth.")
	b.Open(document.LODSection, "2", "Encoding")
	b.Open(document.LODSubsection, "2.0", "Dispersal")
	b.Paragraph("Vandermonde matrices disperse raw packets into cooked packets for reconstruction.")
	b.Paragraph("Any subset of cooked packets reconstructs the original raw packets.")
	doc, err := b.Build("paper.xml", "FT-MRT")
	if err != nil {
		t.Fatal(err)
	}
	idx, err := textproc.BuildIndex(doc, textproc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := Build(doc, idx)
	if err != nil {
		t.Fatal(err)
	}
	return doc, idx, sc
}

func TestNotionString(t *testing.T) {
	tests := []struct {
		n    Notion
		want string
	}{
		{NotionIC, "IC"}, {NotionQIC, "QIC"}, {NotionMQIC, "MQIC"}, {Notion(0), "Notion(0)"},
	}
	for _, tt := range tests {
		if got := tt.n.String(); got != tt.want {
			t.Errorf("Notion(%d).String() = %q, want %q", int(tt.n), got, tt.want)
		}
	}
}

func TestBuildNil(t *testing.T) {
	if _, err := Build(nil, nil); err == nil {
		t.Error("nil inputs accepted")
	}
}

func TestWeights(t *testing.T) {
	occ := map[string]int{"frequent": 8, "medium": 4, "rare": 1}
	w := Weights(occ)
	// Most frequent keyword: ω = 1 − log2(8/8) = 1.
	if math.Abs(w["frequent"]-1) > epsilon {
		t.Errorf("ω(frequent) = %v, want 1", w["frequent"])
	}
	// medium: 1 − log2(4/8) = 2.
	if math.Abs(w["medium"]-2) > epsilon {
		t.Errorf("ω(medium) = %v, want 2", w["medium"])
	}
	// rare: 1 − log2(1/8) = 4.
	if math.Abs(w["rare"]-4) > epsilon {
		t.Errorf("ω(rare) = %v, want 4", w["rare"])
	}
}

func TestWeightsEmpty(t *testing.T) {
	if w := Weights(nil); len(w) != 0 {
		t.Errorf("Weights(nil) = %v, want empty", w)
	}
	if w := Weights(map[string]int{"x": 0}); len(w) != 0 {
		t.Errorf("zero-count keyword weighted: %v", w)
	}
}

func TestWeightsL2NarrowsSpread(t *testing.T) {
	occ := map[string]int{"a": 8, "b": 1}
	winf := Weights(occ)
	wl2 := WeightsL2(occ)
	spreadInf := winf["b"] - winf["a"]
	spreadL2 := wl2["b"] - wl2["a"]
	if math.Abs(spreadInf-spreadL2) > epsilon {
		// Both are log-ratio based so the spread is identical; what
		// changes is the absolute level: L2 norm >= infinity norm, so all
		// L2 weights are at least the infinity-norm weights.
		t.Logf("spread inf %v vs l2 %v", spreadInf, spreadL2)
	}
	if wl2["a"] < winf["a"] {
		t.Errorf("L2 weight %v below infinity-norm weight %v", wl2["a"], winf["a"])
	}
}

func TestInfinityNorm(t *testing.T) {
	if got := InfinityNorm(map[string]int{"a": 3, "b": 7, "c": 2}); got != 7 {
		t.Errorf("InfinityNorm = %d, want 7", got)
	}
	if got := InfinityNorm(nil); got != 0 {
		t.Errorf("InfinityNorm(nil) = %d, want 0", got)
	}
}

func TestICDocumentSumsToOne(t *testing.T) {
	doc, _, sc := paperDoc(t)
	if got := sc.IC(doc.Root.ID); math.Abs(got-1) > epsilon {
		t.Errorf("IC(document) = %v, want 1", got)
	}
}

func TestICAdditiveRule(t *testing.T) {
	doc, _, sc := paperDoc(t)
	for _, u := range doc.Units() {
		if u.IsLeaf() {
			continue
		}
		sum := 0.0
		for _, c := range u.Children {
			sum += sc.IC(c.ID)
		}
		// Parent may carry own text (titles) beyond children, so parent
		// IC >= Σ children; in this fixture titles contribute, so allow
		// parent >= sum within the full unit mass.
		if sc.IC(u.ID)+epsilon < sum {
			t.Errorf("unit %q: IC %v below children sum %v", u.Label, sc.IC(u.ID), sum)
		}
	}
}

func TestICAdditiveExactWithoutTitles(t *testing.T) {
	// With no titles the additive rule is exact.
	b := document.NewBuilder()
	b.Open(document.LODSection, "0", "")
	b.Paragraph("alpha beta gamma alpha")
	b.Paragraph("beta gamma delta")
	b.Open(document.LODSection, "1", "")
	b.Paragraph("epsilon zeta alpha")
	doc, err := b.Build("t", "")
	if err != nil {
		t.Fatal(err)
	}
	idx, err := textproc.BuildIndex(doc, textproc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := Build(doc, idx)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range doc.Units() {
		if u.IsLeaf() {
			continue
		}
		sum := 0.0
		for _, c := range u.Children {
			sum += sc.IC(c.ID)
		}
		if math.Abs(sc.IC(u.ID)-sum) > epsilon {
			t.Errorf("unit %q: IC %v != children sum %v", u.Label, sc.IC(u.ID), sum)
		}
	}
	if math.Abs(sc.IC(doc.Root.ID)-1) > epsilon {
		t.Errorf("document IC = %v, want 1", sc.IC(doc.Root.ID))
	}
}

func TestQICAdditiveAndNormalized(t *testing.T) {
	doc, _, sc := paperDoc(t)
	q := textproc.QueryVector("browsing mobile web")
	s := sc.Evaluate(q)
	if math.Abs(s.QIC[doc.Root.ID]-1) > epsilon {
		t.Errorf("QIC(document) = %v, want 1", s.QIC[doc.Root.ID])
	}
	if math.Abs(s.MQIC[doc.Root.ID]-1) > epsilon {
		t.Errorf("MQIC(document) = %v, want 1", s.MQIC[doc.Root.ID])
	}
}

func TestQICZeroWithoutQueryWords(t *testing.T) {
	// Section 2 (encoding) shares no keyword with the query — its QIC
	// must be exactly zero, Table 1's signature behaviour (e.g. §3.2 rows
	// show 0.00000), while MQIC stays positive.
	doc, _, sc := paperDoc(t)
	q := textproc.QueryVector("browsing mobile web")
	s := sc.Evaluate(q)
	secs, err := doc.UnitsAt(document.LODSection)
	if err != nil {
		t.Fatal(err)
	}
	encoding := secs[2]
	if s.QIC[encoding.ID] != 0 {
		t.Errorf("QIC(encoding section) = %v, want 0", s.QIC[encoding.ID])
	}
	if s.MQIC[encoding.ID] <= 0 {
		t.Errorf("MQIC(encoding section) = %v, want > 0", s.MQIC[encoding.ID])
	}
}

func TestQICBoostsQueryRelevantUnits(t *testing.T) {
	doc, _, sc := paperDoc(t)
	q := textproc.QueryVector("browsing mobile web")
	s := sc.Evaluate(q)
	secs, err := doc.UnitsAt(document.LODSection)
	if err != nil {
		t.Fatal(err)
	}
	abstract, encoding := secs[0], secs[2]
	if s.QIC[abstract.ID] <= s.QIC[encoding.ID] {
		t.Errorf("QIC(abstract)=%v not above QIC(encoding)=%v", s.QIC[abstract.ID], s.QIC[encoding.ID])
	}
	// Relative to its static IC, the abstract must gain share under QIC.
	if s.QIC[abstract.ID] <= s.IC[abstract.ID] {
		t.Errorf("QIC(abstract)=%v did not exceed IC=%v despite matching the query", s.QIC[abstract.ID], s.IC[abstract.ID])
	}
}

func TestEmptyQueryDegeneratesToIC(t *testing.T) {
	doc, _, sc := paperDoc(t)
	s := sc.Evaluate(nil)
	for _, u := range doc.Units() {
		if s.QIC[u.ID] != 0 {
			t.Errorf("unit %q: empty-query QIC = %v, want 0", u.Label, s.QIC[u.ID])
		}
		if math.Abs(s.MQIC[u.ID]-s.IC[u.ID]) > epsilon {
			t.Errorf("unit %q: empty-query MQIC = %v, want IC %v", u.Label, s.MQIC[u.ID], s.IC[u.ID])
		}
	}
}

func TestRepeatedQueryWordBiasesRanking(t *testing.T) {
	// Repeating a querying word gives it... a LOWER weight under the
	// paper's formula (ω_a^Q = 1 − log₂(|a_Q|/‖V_Q‖∞)): the repeated
	// word becomes the norm anchor at weight 1 while singleton words get
	// weight 1 − log₂(1/2) = 2. The paper describes repetition as
	// emphasis; under the symmetric formula the emphasized word's ω^Q is
	// the baseline and others are inflated relative to it — what matters
	// operationally is that scores CHANGE with repetition. Verify both
	// the exact weights and that unit ordering responds.
	qSingle := textproc.QueryVector("vandermonde mobile")
	qRepeat := textproc.QueryVector("vandermonde vandermonde mobile")

	wSingle := Weights(qSingle)
	if math.Abs(wSingle["vandermonde"]-1) > epsilon || math.Abs(wSingle["mobile"]-1) > epsilon {
		t.Fatalf("single-occurrence query weights = %v, want all 1", wSingle)
	}
	wRepeat := Weights(qRepeat)
	if math.Abs(wRepeat["vandermonde"]-1) > epsilon {
		t.Errorf("repeated word weight = %v, want 1 (norm anchor)", wRepeat["vandermonde"])
	}
	if math.Abs(wRepeat["mobile"]-2) > epsilon {
		t.Errorf("singleton word weight = %v, want 2", wRepeat["mobile"])
	}

	_, _, sc := paperDoc(t)
	s1 := sc.Evaluate(qSingle)
	s2 := sc.Evaluate(qRepeat)
	changed := false
	for id := range s1.QIC {
		if math.Abs(s1.QIC[id]-s2.QIC[id]) > epsilon {
			changed = true
			break
		}
	}
	if !changed {
		t.Error("query-word repetition left every QIC unchanged")
	}
}

func TestScoresGetUnknownNotion(t *testing.T) {
	_, _, sc := paperDoc(t)
	s := sc.Evaluate(nil)
	if got := s.Get(Notion(0), 0); got != 0 {
		t.Errorf("unknown notion score = %v, want 0", got)
	}
}

func TestOutOfRangeUnitScoresZero(t *testing.T) {
	doc, _, sc := paperDoc(t)
	n := len(doc.Units())
	s := sc.Evaluate(textproc.QueryVector("browsing mobile web"))
	for _, id := range []int{-1, n, n + 1} {
		if got := sc.IC(id); got != 0 {
			t.Errorf("IC(%d) = %v, want 0", id, got)
		}
		for _, notion := range []Notion{NotionIC, NotionQIC, NotionMQIC} {
			if got := s.Get(notion, id); got != 0 {
				t.Errorf("Get(%v, %d) = %v, want 0", notion, id, got)
			}
		}
	}
	if got := s.Get(NotionIC, doc.Root.ID); got == 0 {
		t.Error("in-range unit scored 0")
	}
}

// TestScoresBitReproducible rebuilds each corpus document's SC from fresh
// parses and requires every score of every notion to keep its bits: a
// layout carries each score as its 8 raw bytes, so a last-bit drift
// makes two replicas of one corpus serve different layouts.
func TestScoresBitReproducible(t *testing.T) {
	q := textproc.QueryVector("mobile web browsing")
	for _, name := range corpus.Names() {
		var first *Scores
		var units int
		for build := 0; build < 50; build++ {
			doc, err := corpus.Load(name)
			if err != nil {
				t.Fatal(err)
			}
			idx, err := textproc.BuildIndex(doc, textproc.Options{})
			if err != nil {
				t.Fatal(err)
			}
			sc, err := Build(doc, idx)
			if err != nil {
				t.Fatal(err)
			}
			s := sc.Evaluate(q)
			if first == nil {
				first, units = s, len(doc.Units())
				continue
			}
			for _, notion := range []Notion{NotionIC, NotionQIC, NotionMQIC} {
				for id := 0; id < units; id++ {
					got, want := math.Float64bits(s.Get(notion, id)), math.Float64bits(first.Get(notion, id))
					if got != want {
						t.Fatalf("%s build %d: %v of unit %d = %x, first build %x", name, build, notion, id, got, want)
					}
				}
			}
		}
	}
}

func TestWeightAccessor(t *testing.T) {
	_, idx, sc := paperDoc(t)
	for _, w := range idx.Keywords() {
		if sc.Weight(w) < 1 {
			t.Errorf("keyword %q weight %v below 1; infinity norm guarantees >= 1", w, sc.Weight(w))
		}
	}
	if sc.Weight("nonexistent-keyword") != 0 {
		t.Error("absent keyword has non-zero weight")
	}
}

func BenchmarkEvaluate(b *testing.B) {
	_, _, sc := paperDoc(b)
	q := textproc.QueryVector("browsing mobile web")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.Evaluate(q)
	}
}
