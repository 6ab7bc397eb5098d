// Package search provides the keyword search front end of the browsing
// pipeline: documents are indexed with the textproc pipeline, queries are
// matched with the vector-space model (§3.3 notes this model "has been
// shown to be competitive"), and each hit carries the structural
// characteristic plus the query vector so the transmitter can order units
// by QIC.
package search

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"mobweb/internal/content"
	"mobweb/internal/document"
	"mobweb/internal/markup"
	"mobweb/internal/textproc"
)

// Engine is an in-memory inverted index over a document collection. It is
// safe for concurrent use: reads take a shared lock and additions an
// exclusive one.
type Engine struct {
	mu      sync.RWMutex
	entries map[string]*entry
	// slots holds every indexed document under its slot, the number its
	// first Add gave its name; a re-added name keeps its slot.
	slots []*entry
	// posting maps keyword → the ascending slots of the documents
	// containing it; a keyword no current document contains has no list.
	posting map[string][]int32
	// version is the last version minted by Add.
	version uint64
	opts    textproc.Options
}

type entry struct {
	doc  *document.Document
	idx  *textproc.Index
	sc   *content.SC
	slot int32
	// version is unique to this Add: a re-added name gets a higher one.
	version uint64
	// norm is the Euclidean norm of the document's weighted term vector,
	// precomputed for cosine scoring.
	norm float64
}

// NewEngine returns an empty search engine using the given pipeline
// options.
func NewEngine(opts textproc.Options) *Engine {
	return &Engine{
		entries: make(map[string]*entry),
		posting: make(map[string][]int32),
		opts:    opts,
	}
}

// Add indexes a parsed document. Re-adding a name replaces the previous
// version, and every Add mints a new version number (see Current).
func (e *Engine) Add(doc *document.Document) error {
	if doc == nil {
		return fmt.Errorf("search: nil document")
	}
	idx, err := textproc.BuildIndex(doc, e.opts)
	if err != nil {
		return err
	}
	sc, err := content.Build(doc, idx)
	if err != nil {
		return err
	}
	var norm float64
	for t, w := range sc.TermWeights() {
		v := float64(idx.Count(t)) * w
		norm += v * v
	}
	ent := &entry{doc: doc, idx: idx, sc: sc, norm: math.Sqrt(norm)}

	e.mu.Lock()
	defer e.mu.Unlock()
	if old, ok := e.entries[doc.Name]; ok {
		ent.slot = old.slot
		for _, w := range old.idx.Keywords() {
			list := e.posting[w]
			i, _ := slices.BinarySearch(list, ent.slot)
			if list = slices.Delete(list, i, i+1); len(list) == 0 {
				delete(e.posting, w)
			} else {
				e.posting[w] = list
			}
		}
	} else {
		ent.slot = int32(len(e.slots))
		e.slots = append(e.slots, nil)
	}
	e.version++
	ent.version = e.version
	e.entries[doc.Name] = ent
	e.slots[ent.slot] = ent
	for _, w := range idx.Keywords() {
		list, ok := e.posting[w]
		if !ok {
			w = strings.Clone(w) // the key outlives this index's term bytes
		}
		i, _ := slices.BinarySearch(list, ent.slot)
		e.posting[w] = slices.Insert(list, i, ent.slot)
	}
	return nil
}

// AddXML parses and indexes an XML document.
func (e *Engine) AddXML(name string, data []byte) error {
	doc, err := markup.ParseXML(bytes.NewReader(data), name, markup.DefaultTagMap())
	if err != nil {
		return err
	}
	return e.Add(doc)
}

// AddHTML parses and indexes an HTML document.
func (e *Engine) AddHTML(name string, data []byte) error {
	doc, err := markup.ParseHTML(bytes.NewReader(data), name)
	if err != nil {
		return err
	}
	return e.Add(doc)
}

// Len returns the number of indexed documents.
func (e *Engine) Len() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.entries)
}

// Names returns the indexed document names, sorted.
func (e *Engine) Names() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	names := make([]string, 0, len(e.entries))
	for n := range e.entries {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SC returns the structural characteristic for a document name.
func (e *Engine) SC(name string) (*content.SC, bool) {
	sc, _, ok := e.Current(name)
	return sc, ok
}

// Current returns a document's structural characteristic and the version
// the Add that indexed it minted, read together: a version names exactly
// one SC, so a cache keyed by it never serves a re-indexed document's
// old content.
func (e *Engine) Current(name string) (*content.SC, uint64, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	ent, ok := e.entries[name]
	if !ok {
		return nil, 0, false
	}
	return ent.sc, ent.version, true
}

// Hit is one search result: the matched document with its
// query-similarity score and the query vector needed for QIC ordering
// downstream.
type Hit struct {
	// Name and Title identify the document.
	Name, Title string
	// Score is the cosine similarity between the weighted query and
	// document term vectors, in (0, 1].
	Score float64
	// SC is the document's structural characteristic.
	SC *content.SC
	// QueryVec is the occurrence vector of the query, ready for
	// content.SC.Evaluate or core.NewPlan.
	QueryVec map[string]int
}

// Search runs a keyword query and returns up to limit hits ordered by
// descending score (ties broken by name for determinism). Every sum runs
// in sorted-term order, so documents with equal term vectors score equal
// to the bit and the name decides. A query with no indexable words
// returns no hits.
func (e *Engine) Search(query string, limit int) []Hit {
	qv := textproc.QueryVector(query)
	if len(qv) == 0 || limit == 0 {
		return nil
	}
	terms := make([]string, 0, len(qv))
	for a := range qv {
		terms = append(terms, a)
	}
	sort.Strings(terms)
	qWeights := content.Weights(qv)
	var qNorm float64
	for _, a := range terms {
		v := float64(qv[a]) * qWeights[a]
		qNorm += v * v
	}
	qNorm = math.Sqrt(qNorm)

	e.mu.RLock()
	defer e.mu.RUnlock()

	// Gather candidates from the postings of each query term.
	candidate := make([]bool, len(e.slots))
	found := 0
	for _, a := range terms {
		for _, slot := range e.posting[a] {
			if !candidate[slot] {
				candidate[slot] = true
				found++
			}
		}
	}
	hits := make([]Hit, 0, found)
	for slot, ok := range candidate {
		if !ok {
			continue
		}
		ent := e.slots[slot]
		var dot float64
		for _, a := range terms {
			t, ok := ent.idx.Term(a)
			if !ok {
				continue
			}
			dot += float64(qv[a]) * qWeights[a] * float64(ent.idx.Count(t)) * ent.sc.TermWeights()[t]
		}
		if dot == 0 || ent.norm == 0 || qNorm == 0 {
			continue
		}
		hits = append(hits, Hit{
			Name:     ent.doc.Name,
			Title:    ent.doc.Title,
			Score:    dot / (ent.norm * qNorm),
			SC:       ent.sc,
			QueryVec: qv,
		})
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].Name < hits[j].Name
	})
	if limit > 0 && len(hits) > limit {
		hits = hits[:limit]
	}
	return hits
}
