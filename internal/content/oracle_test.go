package content_test

import (
	"hash/crc64"
	"math"
	"sort"
	"testing"

	"mobweb/internal/content"
	"mobweb/internal/core"
	"mobweb/internal/corpus"
	"mobweb/internal/document"
	"mobweb/internal/textproc"
)

// denseScores is the reference for SC.Evaluate: the dense formula of
// §3.1–3.2, which walks every (unit, keyword) pair of the document
// rather than the query keywords' postings. Each sum runs in sorted
// keyword order so that the reference itself is reproducible.
func denseScores(sc *content.SC, queryVec map[string]int) (ic, qic, mqic map[int]float64) {
	idx := sc.Index()
	units := make(map[int]map[string]int)
	occ := make(map[string]int)
	for k, w := range idx.Keywords() {
		occ[w] = idx.Count(k)
		for _, p := range idx.Postings(k) {
			if units[int(p.Unit)] == nil {
				units[int(p.Unit)] = make(map[string]int)
			}
			units[int(p.Unit)][w] = int(p.Count)
		}
	}
	weights := content.Weights(occ)
	qWeights := content.Weights(queryVec)
	var totalQ float64
	for _, c := range queryVec {
		totalQ += float64(c)
	}
	lambda := 0.0
	if totalQ > 0 {
		lambda = float64(idx.TotalDoc) / totalQ
	}
	var denomIC, denomQ, denomM float64
	for _, w := range sortedKeys(occ) {
		c := float64(occ[w])
		denomIC += c * weights[w]
		if qw, ok := qWeights[w]; ok {
			denomQ += c * weights[w] * qw
		}
		denomM += c * (weights[w] + lambda*qWeights[w])
	}
	ic, qic, mqic = make(map[int]float64), make(map[int]float64), make(map[int]float64)
	for _, u := range sc.Doc().Units() {
		var numIC, numQ, numM float64
		for _, w := range sortedKeys(units[u.ID]) {
			c := float64(units[u.ID][w])
			qw := qWeights[w]
			numIC += c * weights[w]
			numM += c * (weights[w] + lambda*qw)
			if qw != 0 {
				numQ += c * weights[w] * qw
			}
		}
		ic[u.ID] = div(numIC, denomIC)
		if len(queryVec) == 0 {
			qic[u.ID], mqic[u.ID] = 0, ic[u.ID]
			continue
		}
		qic[u.ID] = div(numQ, denomQ)
		mqic[u.ID] = div(numM, denomM)
	}
	return ic, qic, mqic
}

func sortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func div(num, denom float64) float64 {
	if denom == 0 {
		return 0
	}
	return num / denom
}

// oracleQueries covers the query shapes the sparse pass must not get
// wrong: none, stop words only, keywords absent from every document, a
// repeated keyword, a single keyword, and Table 1's query.
var oracleQueries = []string{
	"",
	"the of and",
	"zyzzyva quokka",
	"web web web mobile",
	"mobile",
	"browsing mobile web",
}

var notions = []content.Notion{content.NotionIC, content.NotionQIC, content.NotionMQIC}

func corpusSCs(t *testing.T) []*content.SC {
	t.Helper()
	docs, err := corpus.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	scs := make([]*content.SC, len(docs))
	for i, doc := range docs {
		idx, err := textproc.BuildIndex(doc, textproc.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if scs[i], err = content.Build(doc, idx); err != nil {
			t.Fatal(err)
		}
	}
	return scs
}

func TestSparseEvaluateMatchesDenseOracle(t *testing.T) {
	for _, sc := range corpusSCs(t) {
		for _, query := range oracleQueries {
			q := textproc.QueryVector(query)
			s := sc.Evaluate(q)
			ic, qic, mqic := denseScores(sc, q)
			want := map[content.Notion]map[int]float64{content.NotionIC: ic, content.NotionQIC: qic, content.NotionMQIC: mqic}
			for _, notion := range notions {
				for _, u := range sc.Doc().Units() {
					got, ref := s.Get(notion, u.ID), want[notion][u.ID]
					if math.Abs(got-ref) > 1e-12*math.Max(math.Abs(got), math.Abs(ref)) {
						t.Errorf("%s %q: %v of unit %q = %v, dense oracle %v", sc.Doc().Name, query, notion, u.Label, got, ref)
					}
				}
			}
		}
	}
}

// TestNewPlanDigestMatchesOracleRanking ranks each corpus document by the
// dense oracle's scores and requires NewPlan's stream to be that
// ranking's, byte for byte.
func TestNewPlanDigestMatchesOracleRanking(t *testing.T) {
	table := crc64.MakeTable(crc64.ECMA)
	for _, sc := range corpusSCs(t) {
		doc := sc.Doc()
		body := doc.Body()
		for _, query := range oracleQueries {
			q := textproc.QueryVector(query)
			ic, qic, mqic := denseScores(sc, q)
			want := map[content.Notion]map[int]float64{content.NotionIC: ic, content.NotionQIC: qic, content.NotionMQIC: mqic}
			for _, notion := range notions {
				for _, lod := range document.AllLODs() {
					units, err := doc.UnitsAt(lod)
					if err != nil {
						t.Fatal(err)
					}
					sort.SliceStable(units, func(i, j int) bool { return want[notion][units[i].ID] > want[notion][units[j].ID] })
					var permuted []byte
					for _, u := range units {
						permuted = append(permuted, body[u.Start:u.End]...)
					}
					plan, err := core.NewPlan(sc, q, core.Config{LOD: lod, Notion: notion})
					if err != nil {
						t.Fatal(err)
					}
					if got, ref := plan.Digest(), crc64.Checksum(permuted, table); got != ref {
						t.Errorf("%s %q %v at %v: plan digest %x, oracle ranking's %x", doc.Name, query, notion, lod, got, ref)
					}
				}
			}
		}
	}
}

// TestRankUnitsDescending checks NewPlan's transmission order: segment
// scores never rise.
func TestRankUnitsDescending(t *testing.T) {
	q := textproc.QueryVector("browsing mobile web")
	for _, sc := range corpusSCs(t) {
		for _, notion := range notions {
			plan, err := core.NewPlan(sc, q, core.Config{LOD: document.LODParagraph, Notion: notion})
			if err != nil {
				t.Fatal(err)
			}
			segs := plan.Segments()
			for i := 1; i < len(segs); i++ {
				if segs[i].Score > segs[i-1].Score {
					t.Errorf("%s %v: rank %d score %v above rank %d score %v", sc.Doc().Name, notion, i, segs[i].Score, i-1, segs[i-1].Score)
				}
			}
		}
	}
}

func TestRankUnitsInvalidLOD(t *testing.T) {
	sc := corpusSCs(t)[0]
	if _, err := core.NewPlan(sc, nil, core.Config{LOD: document.LOD(99)}); err == nil {
		t.Error("invalid LOD accepted")
	}
}
