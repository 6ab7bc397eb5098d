package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"mobweb/internal/content"
	"mobweb/internal/corpus"
	"mobweb/internal/document"
	"mobweb/internal/search"
	"mobweb/internal/textproc"
	"mobweb/internal/trace"
)

func layoutBytes(t *testing.T, p *Plan) []byte {
	t.Helper()
	b, err := p.Layout().AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestNewPlanWithScoresAbsentIsZero: the simulator's maps name only
// scored units and the baseline passes an empty map; both must plan as
// if every other unit had an explicit zero.
func TestNewPlanWithScoresAbsentIsZero(t *testing.T) {
	doc, scores, err := trace.Generate(trace.Default(), rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	leavesOnly := make(map[int]float64)
	for _, p := range doc.Paragraphs() {
		leavesOnly[p.ID] = scores[p.ID]
	}
	zeros := make(map[int]float64)
	withZeros := func(m map[int]float64) map[int]float64 {
		out := make(map[int]float64)
		for _, u := range doc.Units() {
			out[u.ID] = m[u.ID]
		}
		return out
	}
	for name, sparse := range map[string]map[int]float64{"sim": scores, "paragraphs": leavesOnly, "empty": zeros} {
		for _, lod := range document.AllLODs() {
			cfg := Config{LOD: lod}
			a, err := NewPlanWithScores(doc, sparse, cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewPlanWithScores(doc, withZeros(sparse), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(layoutBytes(t, a), layoutBytes(t, b)) {
				t.Errorf("%s map at %v: layout differs from the explicit-zero map's", name, lod)
			}
		}
	}
}

// TestPlanLayoutsReproducibleAcrossEngines indexes the corpus in two
// independent search engines, as two replicas do, and requires every
// plan's layout header to agree byte for byte: scores travel as their
// raw float64 bits.
func TestPlanLayoutsReproducibleAcrossEngines(t *testing.T) {
	engines := [2]*search.Engine{search.NewEngine(textproc.Options{}), search.NewEngine(textproc.Options{})}
	for _, e := range engines {
		for _, name := range corpus.Names() {
			doc, err := corpus.Load(name)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Add(doc); err != nil {
				t.Fatal(err)
			}
		}
	}
	queries := []string{"", "mobile web browsing", "web web web mobile", "information retrieval"}
	for _, name := range corpus.Names() {
		scA, _ := engines[0].SC(name)
		scB, _ := engines[1].SC(name)
		for _, query := range queries {
			q := textproc.QueryVector(query)
			for _, notion := range []content.Notion{content.NotionIC, content.NotionQIC, content.NotionMQIC} {
				for _, lod := range document.AllLODs() {
					cfg := Config{LOD: lod, Notion: notion}
					a, err := NewPlan(scA, q, cfg)
					if err != nil {
						t.Fatal(err)
					}
					b, err := NewPlan(scB, q, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(layoutBytes(t, a), layoutBytes(t, b)) {
						t.Errorf("%s %q %v at %v: the two engines' layouts differ", name, query, notion, lod)
					}
				}
			}
		}
	}
}

// BenchmarkNewPlanQuery is a plan-cache miss: draft.xml ranked by QIC at
// paragraph LOD for a query vector not seen before.
func BenchmarkNewPlanQuery(b *testing.B) {
	doc, err := corpus.Load(corpus.DraftName)
	if err != nil {
		b.Fatal(err)
	}
	idx, err := textproc.BuildIndex(doc, textproc.Options{})
	if err != nil {
		b.Fatal(err)
	}
	sc, err := content.Build(doc, idx)
	if err != nil {
		b.Fatal(err)
	}
	words := []string{"mobile", "web", "browsing", "packet", "channel", "document", "query", "transmission"}
	queries := make([]map[string]int, 64)
	for i := range queries {
		queries[i] = textproc.QueryVector(fmt.Sprintf("%s %s %s", words[i%8], words[(i/8)%8], words[(i*3+1)%8]))
	}
	cfg := Config{LOD: document.LODParagraph, Notion: content.NotionQIC}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewPlan(sc, queries[i%len(queries)], cfg); err != nil {
			b.Fatal(err)
		}
	}
}
