package textproc

import (
	"fmt"
	"slices"
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
//
// The index is one term table: the keywords in ascending order, each
// with its |a_D| and its run of postings in a single slab, found by
// binary search. Term t is Keywords()[t]; Count(t) and Postings(t) read
// its row. An Index is immutable and safe for concurrent use.
type Index struct {
	// words are the keywords, sorted; their bytes share one string.
	words []string
	// counts[t] is |a_D| of words[t].
	counts []int32
	// off[t]:off[t+1] is words[t]'s run of slab; len(off) = len(words)+1.
	off  []int32
	slab []Posting
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
	// unit and every ancestor, then read out in ascending unit ID, one
	// keyword after another in sorted order.
	minFreq := opts.MinFrequency
	if minFreq < 1 {
		minFreq = 1
	}
	var qualified []int
	arena := 0
	for t, ids := range occ {
		if len(ids) >= minFreq || emphasized[t] {
			qualified = append(qualified, t)
			arena += len(lemmas[t])
		}
	}
	slices.SortFunc(qualified, func(a, b int) int { return strings.Compare(lemmas[a], lemmas[b]) })
	var text strings.Builder
	text.Grow(arena)
	for _, t := range qualified {
		text.WriteString(lemmas[t])
	}
	all := text.String()

	idx := &Index{
		words:  make([]string, len(qualified)),
		counts: make([]int32, len(qualified)),
		off:    make([]int32, len(qualified)+1),
	}
	acc := make([]int32, len(units))
	var touched []int32
	var slab []Posting
	for i, t := range qualified {
		ids := occ[t]
		idx.words[i], all = all[:len(lemmas[t])], all[len(lemmas[t]):]
		idx.counts[i] = int32(len(ids))
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
		for _, u := range touched {
			slab = append(slab, Posting{Unit: u, Count: acc[u]})
			acc[u] = 0
		}
		touched = touched[:0]
		idx.off[i+1] = int32(len(slab))
	}
	idx.slab = slices.Clone(slab) // leaves the grown slab's spare capacity behind
	return idx, nil
}

// Keywords returns the qualified keyword set, sorted: the term table's
// first column, shared by every caller, who must not modify it. Term t
// of Count, Postings and the parallel slices of other packages is
// Keywords()[t].
func (x *Index) Keywords() []string { return x.words }

// Term returns the position of a keyword in Keywords, and whether the
// document has it.
func (x *Index) Term(keyword string) (int, bool) {
	return slices.BinarySearch(x.words, keyword)
}

// Count returns |a_D| of term t.
func (x *Index) Count(t int) int { return int(x.counts[t]) }

// Postings returns term t's postings: the units with |a_ni| > 0, in
// ascending unit ID. The slice is shared; callers must not modify it.
func (x *Index) Postings(t int) []Posting { return x.slab[x.off[t]:x.off[t+1]:x.off[t+1]] }

// UnitCount returns |a_ni| for the unit and keyword.
func (x *Index) UnitCount(unitID int, keyword string) int {
	t, ok := x.Term(keyword)
	if !ok {
		return 0
	}
	ps := x.Postings(t)
	i, ok := slices.BinarySearchFunc(ps, unitID, func(p Posting, id int) int { return int(p.Unit) - id })
	if !ok {
		return 0
	}
	return int(ps[i].Count)
}

// DocCount returns |a_D| for the keyword.
func (x *Index) DocCount(keyword string) int {
	if t, ok := x.Term(keyword); ok {
		return x.Count(t)
	}
	return 0
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
