package textproc

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"mobweb/internal/document"
)

// Options tunes the keyword-extractor stage.
type Options struct {
	// MinFrequency is the document-wide occurrence count a lemmatized
	// word needs to qualify as a keyword. Zero or one keeps every
	// non-stop word. Specially-formatted (emphasized) words qualify
	// regardless of frequency (§3.3).
	MinFrequency int
}

// Index is the logical keyword index the SC-generator stage emits: the
// document-wide occurrence vector and, per keyword, its postings — the
// organizational units that contain it, with counts aggregated up the
// unit tree (internal units count their descendants, which is what makes
// the additive rule of §3.1 hold exactly). A query touches only its own
// keywords' postings.
type Index struct {
	// Doc maps keyword → |a_D|.
	Doc map[string]int
	// Postings maps keyword → the units with |a_ni| > 0, in ascending
	// unit ID. The slices are shared; callers must not modify them.
	Postings map[string][]Posting
	// TotalDoc is Σ_a |a_D|, cached for normalization denominators.
	TotalDoc int
}

// Posting is one unit's occurrence count of one keyword.
type Posting struct {
	// Unit is the unit's pre-order ID.
	Unit int32
	// Count is |a_ni|: the occurrences in the unit and its descendants.
	Count int32
}

// BuildIndex runs the five stages of §3.3 over the document and returns
// the logical index. The recognizer, lemmatizer and word filter act on
// one token at a time, so they run as one loop over the unit tree, in
// document order, feeding the keyword extractor's counts directly. The
// extractor is a barrier (qualification needs the document-wide counts),
// after which the structural characteristic generator builds each
// qualified keyword's postings.
func BuildIndex(doc *document.Document, opts Options) (*Index, error) {
	if doc == nil {
		return nil, fmt.Errorf("textproc: nil document")
	}

	// Stages 1–3 — document recognizer (unit text → tokens), lemmatizer,
	// word filter (drop stop words) — and the counting half of stage 4,
	// the keyword extractor. Lemmas are numbered as first seen; occ[t]
	// lists the unit of each occurrence of lemma t, in pre-order.
	var (
		lemmas     []string
		occ        [][]int32
		emphasized []bool
	)
	termOf := make(map[string]int)
	doc.Root.Walk(func(u *document.Unit) bool {
		emph := make(map[string]bool, len(u.Emphasized))
		for _, w := range u.Emphasized {
			for _, tok := range Tokenize(w) {
				emph[tok] = true
			}
		}
		// Titles are content-bearing text of the unit itself.
		for _, source := range []string{u.Title, u.Text} {
			for _, w := range Tokenize(source) {
				lemma := Lemmatize(w)
				if IsStopWord(w) || IsStopWord(lemma) {
					continue
				}
				t, ok := termOf[lemma]
				if !ok {
					t = len(lemmas)
					termOf[lemma] = t
					lemmas = append(lemmas, lemma)
					occ = append(occ, nil)
					emphasized = append(emphasized, false)
				}
				occ[t] = append(occ[t], int32(u.ID))
				if emph[w] {
					emphasized[t] = true
				}
			}
		}
		return true
	})

	units := doc.Units()
	parent := make([]int32, len(units))
	for _, u := range units {
		for _, c := range u.Children {
			parent[c.ID] = int32(u.ID)
		}
	}
	parent[doc.Root.ID] = -1

	// Stage 4 — keyword extractor: frequency threshold plus the
	// specially-formatted override. Stage 5 — structural characteristic
	// generator: each qualified keyword's occurrences counted into their
	// unit and every ancestor, then read out in ascending unit ID.
	minFreq := opts.MinFrequency
	if minFreq < 1 {
		minFreq = 1
	}
	idx := &Index{Doc: make(map[string]int, len(lemmas)), Postings: make(map[string][]Posting, len(lemmas))}
	acc := make([]int32, len(units))
	var touched []int32
	for t, ids := range occ {
		if len(ids) < minFreq && !emphasized[t] {
			continue
		}
		idx.Doc[lemmas[t]] = len(ids)
		idx.TotalDoc += len(ids)
		for len(ids) > 0 {
			run := 1 // a unit's occurrences are adjacent
			for run < len(ids) && ids[run] == ids[0] {
				run++
			}
			for u := ids[0]; u >= 0; u = parent[u] {
				if acc[u] == 0 {
					touched = append(touched, u)
				}
				acc[u] += int32(run)
			}
			ids = ids[run:]
		}
		slices.Sort(touched)
		ps := make([]Posting, len(touched))
		for i, u := range touched {
			ps[i] = Posting{Unit: u, Count: acc[u]}
			acc[u] = 0
		}
		idx.Postings[lemmas[t]] = ps
		touched = touched[:0]
	}
	return idx, nil
}

// UnitCount returns |a_ni| for the unit and keyword.
func (x *Index) UnitCount(unitID int, keyword string) int {
	ps := x.Postings[keyword]
	i, ok := slices.BinarySearchFunc(ps, unitID, func(p Posting, id int) int { return int(p.Unit) - id })
	if !ok {
		return 0
	}
	return int(ps[i].Count)
}

// DocCount returns |a_D| for the keyword.
func (x *Index) DocCount(keyword string) int { return x.Doc[keyword] }

// Keywords returns the qualified keyword set, sorted.
func (x *Index) Keywords() []string {
	out := make([]string, 0, len(x.Doc))
	for w := range x.Doc {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}

// QueryVector converts a free-text query into its occurrence vector V_Q:
// tokenize, lemmatize, drop stop words, count repeats (a user repeats a
// keyword to emphasize it, §3.2).
func QueryVector(query string) map[string]int {
	v := make(map[string]int)
	for _, w := range Tokenize(query) {
		lemma := Lemmatize(w)
		if IsStopWord(w) || IsStopWord(lemma) {
			continue
		}
		v[lemma]++
	}
	return v
}

// NormalizeWord applies the same recognizer+lemmatizer treatment to a
// single word, for callers that need to match user input against index
// keys.
func NormalizeWord(w string) string {
	toks := Tokenize(strings.TrimSpace(w))
	if len(toks) == 0 {
		return ""
	}
	return Lemmatize(toks[0])
}
