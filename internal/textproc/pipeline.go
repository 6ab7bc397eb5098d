package textproc

import (
	"fmt"
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
// document-wide occurrence vector and per-unit occurrence counts for every
// organizational unit (internal units aggregate their descendants, which
// is what makes the additive rule of §3.1 hold exactly).
type Index struct {
	// Doc maps keyword → |a_D|.
	Doc map[string]int
	// Units maps unit ID → keyword → |a_ni|.
	Units map[int]map[string]int
	// TotalDoc is Σ_a |a_D|, cached for normalization denominators.
	TotalDoc int
}

// annotated is a token that passed the word filter.
type annotated struct {
	unitID int
	lemma  string
}

// BuildIndex runs the five stages of §3.3 over the document and returns
// the logical index. The recognizer, lemmatizer and word filter act on
// one token at a time, so they run as one loop over the unit tree, in
// document order, feeding the keyword extractor's counts directly. The
// extractor is a barrier (qualification needs the document-wide counts),
// after which the structural characteristic generator counts the
// qualified keywords per unit.
func BuildIndex(doc *document.Document, opts Options) (*Index, error) {
	if doc == nil {
		return nil, fmt.Errorf("textproc: nil document")
	}

	// Stages 1–3 — document recognizer (unit text → tokens), lemmatizer,
	// word filter (drop stop words) — and the counting half of stage 4,
	// the keyword extractor.
	var stream []annotated
	freq := make(map[string]int)
	emphasizedWords := make(map[string]bool)
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
				stream = append(stream, annotated{unitID: u.ID, lemma: lemma})
				freq[lemma]++
				if emph[w] {
					emphasizedWords[lemma] = true
				}
			}
		}
		return true
	})

	// Stage 4 — keyword extractor: frequency threshold plus the
	// specially-formatted override.
	minFreq := opts.MinFrequency
	if minFreq < 1 {
		minFreq = 1
	}
	keywords := make(map[string]bool, len(freq))
	for w, c := range freq {
		if c >= minFreq || emphasizedWords[w] {
			keywords[w] = true
		}
	}

	// Stage 5 — structural characteristic generator: per-unit counts for
	// qualified keywords, aggregated up the unit tree.
	idx := &Index{
		Doc:   make(map[string]int, len(keywords)),
		Units: make(map[int]map[string]int, len(doc.Units())),
	}
	for _, u := range doc.Units() {
		idx.Units[u.ID] = make(map[string]int)
	}
	own := make(map[int]map[string]int, len(doc.Units()))
	for _, t := range stream {
		if !keywords[t.lemma] {
			continue
		}
		m := own[t.unitID]
		if m == nil {
			m = make(map[string]int)
			own[t.unitID] = m
		}
		m[t.lemma]++
		idx.Doc[t.lemma]++
		idx.TotalDoc++
	}
	var aggregate func(u *document.Unit) map[string]int
	aggregate = func(u *document.Unit) map[string]int {
		acc := idx.Units[u.ID]
		for w, c := range own[u.ID] {
			acc[w] += c
		}
		for _, child := range u.Children {
			for w, c := range aggregate(child) {
				acc[w] += c
			}
		}
		return acc
	}
	aggregate(doc.Root)
	return idx, nil
}

// UnitCount returns |a_ni| for the unit and keyword.
func (x *Index) UnitCount(unitID int, keyword string) int {
	return x.Units[unitID][keyword]
}

// DocCount returns |a_D| for the keyword.
func (x *Index) DocCount(keyword string) int { return x.Doc[keyword] }

// Keywords returns the qualified keyword set (unordered).
func (x *Index) Keywords() []string {
	out := make([]string, 0, len(x.Doc))
	for w := range x.Doc {
		out = append(out, w)
	}
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
