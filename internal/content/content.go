// Package content computes the information-content notions of §3.1–3.2:
//
//   - IC: static information content p_i of an organizational unit, a
//     keyword-weighted mass normalized so the document sums to one;
//   - QIC: query-based information content q_i^Q, re-weighting keywords by
//     the querying words (product combination);
//   - MQIC: modified QIC q̃_i^Q, the scaled-sum combination that avoids
//     zeroing units that miss every querying word.
//
// Keyword weights use the paper's logarithmic form
// ω_a = 1 − log₂(|a_D| / ‖V_D‖) with the infinity norm ‖V_D‖∞ = max|v_i|,
// chosen so weights need no human calibration. All three notions obey the
// additive rule: a unit's score equals the sum of its sub-units' scores,
// and the document totals 1 (when its denominator is non-zero).
package content

import (
	"fmt"
	"math"
	"sort"

	"mobweb/internal/document"
	"mobweb/internal/textproc"
)

// Notion selects which information-content definition ranks units.
type Notion int

// The three notions of the paper. They start at 1 so the zero value is
// invalid.
const (
	// NotionIC is the static, query-independent content of §3.1.
	NotionIC Notion = iota + 1
	// NotionQIC is the query-based content of §3.2 (product weights).
	NotionQIC
	// NotionMQIC is the modified query-based content (scaled sum).
	NotionMQIC
)

// String names the notion as used in Table 1's column headers.
func (n Notion) String() string {
	switch n {
	case NotionIC:
		return "IC"
	case NotionQIC:
		return "QIC"
	case NotionMQIC:
		return "MQIC"
	default:
		return fmt.Sprintf("Notion(%d)", int(n))
	}
}

// SC is the structural characteristic: the unit tree plus the logical
// keyword index and derived keyword weights. It is immutable after Build
// and safe for concurrent use.
type SC struct {
	doc     *document.Document
	index   *textproc.Index
	weights []float64 // ω_a per term of the index's table
	denomIC float64   // Σ_d |d_D|·ω_d
	icNum   []float64 // Σ_a |a_ni|·ω_a per unit ID: IC's numerator
}

// Build derives the SC from a document and its keyword index. Every sum
// runs over the keywords in sorted order, so one document scores the
// same to the bit on every build.
func Build(doc *document.Document, index *textproc.Index) (*SC, error) {
	if doc == nil || index == nil {
		return nil, fmt.Errorf("content: nil document or index")
	}
	n := len(index.Keywords())
	sc := &SC{
		doc:     doc,
		index:   index,
		weights: make([]float64, n),
		icNum:   make([]float64, len(doc.Units())),
	}
	norm := 0
	for t := range n {
		norm = max(norm, index.Count(t))
	}
	for t := range n {
		weight := logWeight(index.Count(t), float64(norm))
		sc.weights[t] = weight
		sc.denomIC += float64(index.Count(t)) * weight
		for _, p := range index.Postings(t) {
			sc.icNum[p.Unit] += float64(p.Count) * weight
		}
	}
	return sc, nil
}

// Weights computes ω_a = 1 − log₂(|a_D| / ‖V_D‖∞) for every keyword in
// an occurrence vector. The most frequent keyword gets weight exactly 1;
// rarer keywords get larger weights. An empty vector yields an empty map.
func Weights(occurrences map[string]int) map[string]float64 {
	norm := InfinityNorm(occurrences)
	w := make(map[string]float64, len(occurrences))
	if norm == 0 {
		return w
	}
	for a, c := range occurrences {
		if c <= 0 {
			continue
		}
		w[a] = logWeight(c, float64(norm))
	}
	return w
}

// logWeight is ω = 1 − log₂(c / norm).
func logWeight(c int, norm float64) float64 { return 1 - math.Log2(float64(c)/norm) }

// WeightsL2 is the alternative using the Euclidean norm, kept for the
// norm-choice ablation (DESIGN.md §5). The paper chooses the infinity
// norm; with L2 the most frequent keyword's weight exceeds 1 and the
// relative spread between rare and frequent words narrows.
func WeightsL2(occurrences map[string]int) map[string]float64 {
	var sumSq float64
	for _, c := range occurrences {
		sumSq += float64(c) * float64(c)
	}
	norm := math.Sqrt(sumSq)
	w := make(map[string]float64, len(occurrences))
	if norm == 0 {
		return w
	}
	for a, c := range occurrences {
		if c <= 0 {
			continue
		}
		w[a] = logWeight(c, norm)
	}
	return w
}

// InfinityNorm returns max |v_i| of an occurrence vector.
func InfinityNorm(occurrences map[string]int) int {
	m := 0
	for _, c := range occurrences {
		if c > m {
			m = c
		}
	}
	return m
}

// Doc returns the underlying document.
func (sc *SC) Doc() *document.Document { return sc.doc }

// Index returns the underlying keyword index.
func (sc *SC) Index() *textproc.Index { return sc.index }

// Weight returns ω_a for a keyword (zero when absent).
func (sc *SC) Weight(keyword string) float64 {
	if t, ok := sc.index.Term(keyword); ok {
		return sc.weights[t]
	}
	return 0
}

// TermWeights returns ω per term, parallel to Index().Keywords(). The
// slice is shared; callers must not modify it.
func (sc *SC) TermWeights() []float64 { return sc.weights }

// IC returns the static information content p_i of a unit (zero for an
// ID outside the document).
func (sc *SC) IC(unitID int) float64 { return safeDiv(at(sc.icNum, unitID), sc.denomIC) }

// Scores holds all three notions evaluated per unit for one query.
type Scores struct {
	// IC, QIC and MQIC are indexed by unit ID. They belong to the caller.
	IC, QIC, MQIC []float64
}

// For returns the scores under the requested notion, indexed by unit ID,
// or nil for an unknown notion.
func (s *Scores) For(n Notion) []float64 {
	switch n {
	case NotionIC:
		return s.IC
	case NotionQIC:
		return s.QIC
	case NotionMQIC:
		return s.MQIC
	default:
		return nil
	}
}

// Get returns the score for the requested notion (zero for an unknown
// notion or an ID outside the document).
func (s *Scores) Get(n Notion, unitID int) float64 { return at(s.For(n), unitID) }

// Evaluate computes IC, QIC and MQIC for every unit against a query
// occurrence vector V_Q (from textproc.QueryVector). Only the query
// keywords' postings are read: with ω_a^Q the query weights and
// λ = Σ|a_D| / Σ|a_Q| the MQIC scaling factor,
//
//	QIC_i  = Σ_{a∈Q} |a_ni|·ω_a·ω_a^Q / Σ_{a∈Q} |a_D|·ω_a·ω_a^Q
//	MQIC_i = (Σ_a |a_ni|·ω_a + λ·Σ_{a∈Q} |a_ni|·ω_a^Q) / (Σ_a |a_D|·ω_a + λ·Σ_{a∈Q} |a_D|·ω_a^Q)
//
// where the static sums come precomputed from Build. The query keywords
// are summed in sorted order. A nil or empty query yields QIC = 0
// everywhere and MQIC = IC, the natural limit as the query vanishes.
func (sc *SC) Evaluate(queryVec map[string]int) *Scores {
	n := len(sc.icNum)
	all := make([]float64, 3*n)
	s := &Scores{IC: all[:n:n], QIC: all[n : 2*n : 2*n], MQIC: all[2*n:]}
	for id, num := range sc.icNum {
		s.IC[id] = safeDiv(num, sc.denomIC)
	}
	if len(queryVec) == 0 {
		copy(s.MQIC, s.IC)
		return s
	}

	qWeights := Weights(queryVec) // ω_a^Q, zero when |a_Q| = 0 by absence
	terms := make([]string, 0, len(queryVec))
	totalQ := 0
	for a, c := range queryVec {
		terms = append(terms, a)
		totalQ += c
	}
	sort.Strings(terms)
	lambda := 0.0
	if totalQ > 0 {
		lambda = float64(sc.index.TotalDoc) / float64(totalQ)
	}

	// s.QIC and s.MQIC first accumulate the query sums of the numerators:
	// Σ|a_ni|·ω_a·ω_a^Q and Σ|a_ni|·ω_a^Q.
	var denomQ, denomMQ float64
	for _, a := range terms {
		t, ok := sc.index.Term(a)
		qw := qWeights[a]
		if qw == 0 || !ok {
			continue
		}
		dc, w := sc.index.Count(t), sc.weights[t]
		denomQ += float64(dc) * w * qw
		denomMQ += float64(dc) * qw
		for _, p := range sc.index.Postings(t) {
			c := float64(p.Count)
			s.QIC[p.Unit] += c * w * qw
			s.MQIC[p.Unit] += c * qw
		}
	}
	denomM := sc.denomIC + lambda*denomMQ
	for id := range s.QIC {
		s.QIC[id] = safeDiv(s.QIC[id], denomQ)
		s.MQIC[id] = safeDiv(sc.icNum[id]+lambda*s.MQIC[id], denomM)
	}
	return s
}

// at reads a per-unit score, zero outside [0, len(scores)).
func at(scores []float64, unitID int) float64 {
	if unitID < 0 || unitID >= len(scores) {
		return 0
	}
	return scores[unitID]
}

func safeDiv(num, denom float64) float64 {
	if denom == 0 {
		return 0
	}
	return num / denom
}
