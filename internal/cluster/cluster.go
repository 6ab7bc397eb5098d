// Package cluster models the paper's larger browsing unit: "by a
// document, it is not only referred to as simply a single web page, but
// it may also include a collection of hierarchically linked related
// pages, composing a larger document" (§1). A Cluster groups pages under
// a root, computes cluster-level information content with the same
// keyword-weighting machinery used inside a single document (pages play
// the role of organizational units of the super-document), and produces
// prefetch candidates for the pages linked from the one being read —
// feeding §6's "intelligent prefetching … with respect to a collection of
// related pages in the form of a cluster".
package cluster

import (
	"fmt"
	"sort"

	"mobweb/internal/content"
	"mobweb/internal/document"
	"mobweb/internal/prefetch"
	"mobweb/internal/textproc"
)

// Page is one document in a cluster with its outgoing links.
type Page struct {
	// Doc is the page's structured document.
	Doc *document.Document
	// Index is the page's keyword index.
	Index *textproc.Index
	// Links names the pages this one links to, in document order.
	Links []string
}

// Cluster is a root page plus the pages reachable from it.
type Cluster struct {
	name  string
	root  string
	pages map[string]*Page
}

// New starts an empty cluster whose entry point will be rootName.
func New(name, rootName string) (*Cluster, error) {
	if name == "" || rootName == "" {
		return nil, fmt.Errorf("cluster: empty name or root")
	}
	return &Cluster{name: name, root: rootName, pages: make(map[string]*Page)}, nil
}

// Name returns the cluster name.
func (c *Cluster) Name() string { return c.name }

// Root returns the root page name.
func (c *Cluster) Root() string { return c.root }

// Len returns the number of pages.
func (c *Cluster) Len() int { return len(c.pages) }

// AddPage indexes a document into the cluster with its outgoing links.
// Re-adding a name replaces the page.
func (c *Cluster) AddPage(doc *document.Document, links []string) error {
	if doc == nil {
		return fmt.Errorf("cluster: nil document")
	}
	idx, err := textproc.BuildIndex(doc, textproc.Options{})
	if err != nil {
		return err
	}
	c.pages[doc.Name] = &Page{
		Doc:   doc,
		Index: idx,
		Links: append([]string(nil), links...),
	}
	return nil
}

// Page returns a page by name.
func (c *Cluster) Page(name string) (*Page, bool) {
	p, ok := c.pages[name]
	return p, ok
}

// Validate checks the cluster invariants: the root exists, every link
// resolves to a page, and every page is reachable from the root (the
// "hierarchically linked" property).
func (c *Cluster) Validate() error {
	if _, ok := c.pages[c.root]; !ok {
		return fmt.Errorf("cluster %s: root %q missing", c.name, c.root)
	}
	for name, p := range c.pages {
		for _, l := range p.Links {
			if _, ok := c.pages[l]; !ok {
				return fmt.Errorf("cluster %s: page %q links to unknown %q", c.name, name, l)
			}
		}
	}
	reach := make(map[string]bool, len(c.pages))
	var visit func(string)
	visit = func(name string) {
		if reach[name] {
			return
		}
		reach[name] = true
		for _, l := range c.pages[name].Links {
			visit(l)
		}
	}
	visit(c.root)
	for name := range c.pages {
		if !reach[name] {
			return fmt.Errorf("cluster %s: page %q unreachable from root", c.name, name)
		}
	}
	return nil
}

// PageScore is one page's cluster-level information content.
type PageScore struct {
	// Name is the page.
	Name string
	// IC is the page's share of the cluster's information content; all
	// pages sum to 1 (additive rule lifted to the cluster level).
	IC float64
	// QIC is the query-based share; zero when the page misses every
	// querying word.
	QIC float64
}

// Scores computes per-page IC and QIC over the whole cluster: keyword
// weights come from the cluster-wide occurrence vector, so a keyword
// that is rare across the cluster weighs more, exactly as a rare keyword
// does within one document.
func (c *Cluster) Scores(queryVec map[string]int) ([]PageScore, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	// Cluster-wide occurrence vector.
	total := make(map[string]int)
	for _, p := range c.pages {
		for t, w := range p.Index.Keywords() {
			total[w] += p.Index.Count(t)
		}
	}
	weights := content.Weights(total)
	qWeights := content.Weights(queryVec)

	// Every sum runs over the keywords in sorted order: float addition is
	// not associative, so map order would let byte-identical pages score
	// apart at the last bit and break the name tie-break below.
	terms := make([]string, 0, len(total))
	for w := range total {
		terms = append(terms, w)
	}
	sort.Strings(terms)
	var denomIC, denomQIC float64
	for _, w := range terms {
		n := total[w]
		denomIC += float64(n) * weights[w]
		if qw, ok := qWeights[w]; ok {
			denomQIC += float64(n) * weights[w] * qw
		}
	}
	out := make([]PageScore, 0, len(c.pages))
	for name, p := range c.pages {
		var numIC, numQIC float64
		for t, w := range p.Index.Keywords() {
			n := p.Index.Count(t)
			numIC += float64(n) * weights[w]
			if qw, ok := qWeights[w]; ok {
				numQIC += float64(n) * weights[w] * qw
			}
		}
		s := PageScore{Name: name}
		if denomIC > 0 {
			s.IC = numIC / denomIC
		}
		if denomQIC > 0 {
			s.QIC = numQIC / denomQIC
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].IC != out[j].IC {
			return out[i].IC > out[j].IC
		}
		return out[i].Name < out[j].Name
	})
	return out, nil
}

// ReadingOrder returns the pages in a content-first traversal: starting
// from the root, always descend into the highest-scoring reachable
// unvisited page — multi-resolution browsing lifted to the cluster, while
// respecting that a user can only follow links they have seen.
func (c *Cluster) ReadingOrder(queryVec map[string]int) ([]string, error) {
	scores, err := c.Scores(queryVec)
	if err != nil {
		return nil, err
	}
	rank := make(map[string]float64, len(scores))
	for _, s := range scores {
		v := s.QIC
		if len(queryVec) == 0 {
			v = s.IC
		}
		rank[s.Name] = v
	}
	visited := make(map[string]bool, len(c.pages))
	frontier := map[string]bool{c.root: true}
	order := make([]string, 0, len(c.pages))
	for len(frontier) > 0 {
		// Pick the best frontier page (ties by name for determinism).
		best := ""
		for name := range frontier {
			if best == "" || rank[name] > rank[best] ||
				(rank[name] == rank[best] && name < best) {
				best = name
			}
		}
		delete(frontier, best)
		visited[best] = true
		order = append(order, best)
		for _, l := range c.pages[best].Links {
			if !visited[l] {
				frontier[l] = true
			}
		}
	}
	return order, nil
}

// PrefetchCandidates converts the links of the current page into
// prefetch candidates scored by cluster-level QIC (falling back to IC for
// empty queries), with packet counts derived from each page's size.
func (c *Cluster) PrefetchCandidates(current string, queryVec map[string]int, packetSize int, gamma float64) ([]prefetch.Candidate, error) {
	page, ok := c.pages[current]
	if !ok {
		return nil, fmt.Errorf("cluster %s: unknown page %q", c.name, current)
	}
	if packetSize < 1 {
		return nil, fmt.Errorf("cluster: packet size %d", packetSize)
	}
	if gamma < 1 {
		return nil, fmt.Errorf("cluster: gamma %v", gamma)
	}
	scores, err := c.Scores(queryVec)
	if err != nil {
		return nil, err
	}
	rank := make(map[string]float64, len(scores))
	for _, s := range scores {
		v := s.QIC
		if len(queryVec) == 0 {
			v = s.IC
		}
		rank[s.Name] = v
	}
	out := make([]prefetch.Candidate, 0, len(page.Links))
	for _, l := range page.Links {
		target := c.pages[l]
		m := (target.Doc.Size() + packetSize - 1) / packetSize
		n := int(float64(m)*gamma + 0.999999)
		out = append(out, prefetch.Candidate{
			Name:          l,
			Score:         rank[l],
			TotalPackets:  n,
			UsefulPackets: m,
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	return out, nil
}
