// Package profile implements user-interest profiles with relevance
// feedback, the personalization layer §2 surveys and §6 lists as future
// work ("intelligent prefetching based on information content and
// user-profiling").
//
// A Profile is a weighted keyword vector over the same lemmatized
// vocabulary the SC pipeline produces. It adapts by relevance feedback:
// documents the user reads in full reinforce their keywords, documents
// discarded early depress them (Rocchio-style additive updates with
// exponential decay). The profile scores candidate documents for
// prefetching and re-ranks search hits.
package profile

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"mobweb/internal/content"
	"mobweb/internal/textproc"
)

// negativeRate scales depression from discarded documents: feedback is
// asymmetric, a discard being weaker evidence than a full read.
const negativeRate = 0.1

// Config tunes profile adaptation.
type Config struct {
	// PositiveRate scales reinforcement from relevant documents;
	// defaults to 0.2.
	PositiveRate float64
	// Decay multiplies every weight after each feedback event, letting
	// stale interests fade; defaults to 0.995.
	Decay float64
	// MaxTerms caps the profile vocabulary; the weakest terms are
	// evicted first. Defaults to 512.
	MaxTerms int
}

func (c Config) withDefaults() Config {
	if c.PositiveRate == 0 {
		c.PositiveRate = 0.2
	}
	if c.Decay == 0 {
		c.Decay = 0.995
	}
	if c.MaxTerms == 0 {
		c.MaxTerms = 512
	}
	return c
}

func (c Config) validate() error {
	if c.PositiveRate < 0 {
		return fmt.Errorf("profile: negative learning rate")
	}
	if c.Decay <= 0 || c.Decay > 1 {
		return fmt.Errorf("profile: decay %v outside (0, 1]", c.Decay)
	}
	if c.MaxTerms < 1 {
		return fmt.Errorf("profile: max terms %d", c.MaxTerms)
	}
	return nil
}

// Profile is a user's adaptive interest vector. It is safe for
// concurrent use.
type Profile struct {
	mu      sync.RWMutex
	cfg     Config
	weights map[string]float64
	events  int
}

// New returns an empty profile.
func New(cfg Config) (*Profile, error) {
	full := cfg.withDefaults()
	if err := full.validate(); err != nil {
		return nil, err
	}
	return &Profile{cfg: full, weights: make(map[string]float64)}, nil
}

// Feedback describes one browsing outcome for adaptation.
type Feedback struct {
	// SC is the browsed document's structural characteristic.
	SC *content.SC
	// Query is the query that surfaced the document (may be empty).
	Query string
	// Relevant reports the user's judgment: true for a document read in
	// full, false for one discarded early.
	Relevant bool
	// FractionRead is the information content consumed before judgment,
	// scaling the update strength in [0, 1]; zero is treated as 1 for
	// relevant documents and as a full-strength discard otherwise.
	FractionRead float64
}

// Observe folds one browsing outcome into the profile.
func (p *Profile) Observe(fb Feedback) error {
	if fb.SC == nil {
		return fmt.Errorf("profile: feedback without SC")
	}
	idx, weights := fb.SC.Index(), fb.SC.TermWeights()
	// Document term weights: occurrence × keyword weight.
	terms := make(map[string]float64, len(weights))
	for t, w := range idx.Keywords() {
		terms[w] = float64(idx.Count(t)) * weights[t]
	}
	p.apply(terms, fb.Query, fb.Relevant, fb.FractionRead)
	return nil
}

// ObserveText folds a browsing outcome into the profile from raw text —
// the client-side path, where the mobile device holds reconstructed or
// partially-rendered text but not the server's structural
// characteristic. The text runs through the same recognizer, lemmatizer
// and stop-word filter as server-side indexing, with weights derived
// from the text's own occurrence vector.
func (p *Profile) ObserveText(text, query string, relevant bool, fractionRead float64) {
	occ := make(map[string]int)
	for _, w := range textproc.Tokenize(text) {
		lemma := textproc.Lemmatize(w)
		if textproc.IsStopWord(w) || textproc.IsStopWord(lemma) {
			continue
		}
		occ[lemma]++
	}
	weights := content.Weights(occ)
	terms := make(map[string]float64, len(occ))
	for w, c := range occ {
		terms[w] = float64(c) * weights[w]
	}
	p.apply(terms, query, relevant, fractionRead)
}

// sortedKeys returns a map's keys in ascending order. Every float
// accumulation in this package iterates sorted keys: float addition is
// not associative, so summing in map order would make scores (and the
// top-k prediction ranking built on them) vary run to run at the ULP
// level (TestProfileScoresAreReproducible).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// apply runs the Rocchio-style update with an L2-normalized term vector
// so long documents don't dominate.
func (p *Profile) apply(terms map[string]float64, query string, relevant bool, fractionRead float64) {
	strength := fractionRead
	if strength <= 0 || strength > 1 {
		strength = 1
	}
	rate := p.cfg.PositiveRate * strength
	if !relevant {
		rate = -negativeRate * strength
	}
	var norm float64
	for _, w := range sortedKeys(terms) {
		norm += terms[w] * terms[w]
	}
	norm = math.Sqrt(norm)
	if norm == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for w := range p.weights {
		p.weights[w] *= p.cfg.Decay
	}
	for w, v := range terms {
		p.weights[w] += rate * v / norm
	}
	// Query terms the user typed are first-class interest evidence.
	if relevant && query != "" {
		for w := range textproc.QueryVector(query) {
			p.weights[w] += rate
		}
	}
	p.events++
	p.evictLocked()
}

// ScoreText rates raw text against the profile, the client-side analogue
// of Score.
func (p *Profile) ScoreText(text string) float64 {
	occ := make(map[string]int)
	for _, w := range textproc.Tokenize(text) {
		lemma := textproc.Lemmatize(w)
		if textproc.IsStopWord(w) || textproc.IsStopWord(lemma) {
			continue
		}
		occ[lemma]++
	}
	weights := content.Weights(occ)
	p.mu.RLock()
	defer p.mu.RUnlock()
	if len(p.weights) == 0 {
		return 0
	}
	var dot, docNorm, profNorm float64
	for _, w := range sortedKeys(occ) {
		v := float64(occ[w]) * weights[w]
		docNorm += v * v
		if pw, ok := p.weights[w]; ok {
			dot += pw * v
		}
	}
	for _, w := range sortedKeys(p.weights) {
		profNorm += p.weights[w] * p.weights[w]
	}
	if dot == 0 || docNorm == 0 || profNorm == 0 {
		return 0
	}
	return dot / (math.Sqrt(docNorm) * math.Sqrt(profNorm))
}

// evictLocked trims the vocabulary to MaxTerms by absolute weight and
// drops near-zero terms. Eviction ties break on the term name so equal
// weights evict the same terms whatever order the map yielded them —
// the surviving vocabulary (and every prediction built from it) is a
// pure function of the feedback history.
func (p *Profile) evictLocked() {
	for w, v := range p.weights {
		if math.Abs(v) < 1e-9 {
			delete(p.weights, w)
		}
	}
	if len(p.weights) <= p.cfg.MaxTerms {
		return
	}
	type term struct {
		w string
		v float64
	}
	all := make([]term, 0, len(p.weights))
	for w, v := range p.weights {
		all = append(all, term{w, math.Abs(v)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].v != all[j].v {
			return all[i].v > all[j].v
		}
		return all[i].w < all[j].w
	})
	for _, t := range all[p.cfg.MaxTerms:] {
		delete(p.weights, t.w)
	}
}

// Events returns the number of feedback observations folded in.
func (p *Profile) Events() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.events
}

// Weight returns the current interest weight of a (lemmatized) term.
func (p *Profile) Weight(term string) float64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.weights[term]
}

// Terms returns the profile's terms ordered by descending weight.
func (p *Profile) Terms() []string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]string, 0, len(p.weights))
	for w := range p.weights {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool {
		if p.weights[out[i]] != p.weights[out[j]] {
			return p.weights[out[i]] > p.weights[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}

// Score rates a document's match to the profile: the cosine between the
// profile vector and the document's weighted term vector, in [-1, 1].
// An empty profile scores everything 0.
func (p *Profile) Score(sc *content.SC) float64 {
	if sc == nil {
		return 0
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	if len(p.weights) == 0 {
		return 0
	}
	idx, weights := sc.Index(), sc.TermWeights()
	var dot, docNorm, profNorm float64
	for t, w := range idx.Keywords() {
		v := float64(idx.Count(t)) * weights[t]
		docNorm += v * v
		if pw, ok := p.weights[w]; ok {
			dot += pw * v
		}
	}
	for _, w := range sortedKeys(p.weights) {
		profNorm += p.weights[w] * p.weights[w]
	}
	if dot == 0 || docNorm == 0 || profNorm == 0 {
		return 0
	}
	return dot / (math.Sqrt(docNorm) * math.Sqrt(profNorm))
}

// Blend combines a search-engine score with the profile score using the
// interpolation weight beta in [0, 1] (0 = pure search, 1 = pure
// profile), the standard personalization mix.
func (p *Profile) Blend(searchScore float64, sc *content.SC, beta float64) float64 {
	if beta < 0 {
		beta = 0
	}
	if beta > 1 {
		beta = 1
	}
	return (1-beta)*searchScore + beta*p.Score(sc)
}

// snapshot is the serialized form of a profile.
type snapshot struct {
	Weights map[string]float64 `json:"weights"`
	Events  int                `json:"events"`
}

// Save writes the profile as JSON, for persistence across sessions on
// the mobile client's local storage.
func (p *Profile) Save(w io.Writer) error {
	p.mu.RLock()
	snap := snapshot{Weights: make(map[string]float64, len(p.weights)), Events: p.events}
	for k, v := range p.weights {
		snap.Weights[k] = v
	}
	p.mu.RUnlock()
	return json.NewEncoder(w).Encode(snap)
}

// Load restores a saved profile, replacing current state.
func (p *Profile) Load(r io.Reader) error {
	var snap snapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("profile: load: %w", err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.weights = snap.Weights
	if p.weights == nil {
		p.weights = make(map[string]float64)
	}
	p.events = snap.Events
	p.evictLocked()
	return nil
}
