package cluster

import (
	"bytes"
	"math"
	"testing"

	"mobweb/internal/corpus"
	"mobweb/internal/document"
	"mobweb/internal/markup"
)

func makeDoc(t *testing.T, name string, paragraphs ...string) *document.Document {
	t.Helper()
	b := document.NewBuilder()
	b.Open(document.LODSection, "", "")
	for _, p := range paragraphs {
		b.Paragraph(p)
	}
	d, err := b.Build(name, name)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// paperCluster builds: index → {overview, details}; overview → {details}.
// The details page is the query-relevant one.
func paperCluster(t *testing.T) *Cluster {
	t.Helper()
	c, err := New("site", "index.xml")
	if err != nil {
		t.Fatal(err)
	}
	add := func(doc *document.Document, links ...string) {
		t.Helper()
		if err := c.AddPage(doc, links); err != nil {
			t.Fatal(err)
		}
	}
	add(makeDoc(t, "index.xml",
		"Welcome to the site map with navigation pointers."), "overview.xml", "details.xml")
	add(makeDoc(t, "overview.xml",
		"General overview of topics including some mobile notes."), "details.xml")
	add(makeDoc(t, "details.xml",
		"Mobile web browsing details: wireless mobile transmission for mobile browsing clients."))
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New("", "root"); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := New("c", ""); err == nil {
		t.Error("empty root accepted")
	}
}

func TestAddPageNil(t *testing.T) {
	c, err := New("c", "r")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddPage(nil, nil); err == nil {
		t.Error("nil document accepted")
	}
}

func TestValidate(t *testing.T) {
	c := paperCluster(t)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 3 {
		t.Errorf("Len = %d, want 3", c.Len())
	}
}

func TestValidateMissingRoot(t *testing.T) {
	c, err := New("c", "missing.xml")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddPage(makeDoc(t, "page.xml", "text"), nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err == nil {
		t.Error("missing root accepted")
	}
}

func TestValidateDanglingLink(t *testing.T) {
	c, err := New("c", "a.xml")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddPage(makeDoc(t, "a.xml", "text"), []string{"ghost.xml"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err == nil {
		t.Error("dangling link accepted")
	}
}

func TestValidateUnreachable(t *testing.T) {
	c, err := New("c", "a.xml")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddPage(makeDoc(t, "a.xml", "text"), nil); err != nil {
		t.Fatal(err)
	}
	if err := c.AddPage(makeDoc(t, "island.xml", "isolated"), nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err == nil {
		t.Error("unreachable page accepted")
	}
}

func TestScoresSumToOne(t *testing.T) {
	c := paperCluster(t)
	scores, err := c.Scores(nil)
	if err != nil {
		t.Fatal(err)
	}
	sumIC := 0.0
	for _, s := range scores {
		sumIC += s.IC
	}
	if math.Abs(sumIC-1) > 1e-9 {
		t.Errorf("cluster IC sums to %v, want 1", sumIC)
	}
}

// Byte-identical pages score equal to the bit, so the name decides their
// order in every fresh cluster: a sum in map order differs at the last bit
// from one build to the next and shuffles them.
func TestScoresTiesBreakByName(t *testing.T) {
	data, err := corpus.Raw(corpus.DraftName)
	if err != nil {
		t.Fatal(err)
	}
	q := map[string]int{"mobile": 1, "web": 1, "browse": 1}
	for trial := 0; trial < 100; trial++ {
		c, err := New("copies", "b.xml")
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"b.xml", "a.xml", "c.xml"} {
			doc, err := markup.ParseXML(bytes.NewReader(data), name, markup.DefaultTagMap())
			if err != nil {
				t.Fatal(err)
			}
			var links []string
			if name == "b.xml" {
				links = []string{"a.xml", "c.xml"}
			}
			if err := c.AddPage(doc, links); err != nil {
				t.Fatal(err)
			}
		}
		for _, query := range []map[string]int{nil, q} {
			scores, err := c.Scores(query)
			if err != nil {
				t.Fatal(err)
			}
			for i, want := range []string{"a.xml", "b.xml", "c.xml"} {
				if scores[i].Name != want {
					t.Fatalf("trial %d, query %v: page %d is %s, want %s; IC bits %x %x %x", trial, query, i, scores[i].Name, want,
						math.Float64bits(scores[0].IC), math.Float64bits(scores[1].IC), math.Float64bits(scores[2].IC))
				}
			}
		}
	}
}

func TestScoresQICFavorsRelevantPage(t *testing.T) {
	c := paperCluster(t)
	q := map[string]int{"mobile": 1, "browse": 1}
	scores, err := c.Scores(q)
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]PageScore, len(scores))
	sumQIC := 0.0
	for _, s := range scores {
		byName[s.Name] = s
		sumQIC += s.QIC
	}
	if math.Abs(sumQIC-1) > 1e-9 {
		t.Errorf("cluster QIC sums to %v, want 1", sumQIC)
	}
	if byName["details.xml"].QIC <= byName["index.xml"].QIC {
		t.Errorf("details QIC %v not above index %v",
			byName["details.xml"].QIC, byName["index.xml"].QIC)
	}
	if byName["index.xml"].QIC != 0 {
		t.Errorf("index page QIC = %v, want 0 (no query words)", byName["index.xml"].QIC)
	}
}

func TestReadingOrderStartsAtRoot(t *testing.T) {
	c := paperCluster(t)
	q := map[string]int{"mobile": 1}
	order, err := c.ReadingOrder(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 {
		t.Fatalf("order %v, want all 3 pages", order)
	}
	if order[0] != "index.xml" {
		t.Errorf("order starts at %q, want the root", order[0])
	}
	// The query-relevant details page must come before the overview.
	if order[1] != "details.xml" {
		t.Errorf("order[1] = %q, want details.xml (highest QIC among linked)", order[1])
	}
}

func TestReadingOrderRespectsReachability(t *testing.T) {
	// deep.xml has huge relevance but is only reachable through mid.xml;
	// it cannot be read first.
	c, err := New("chain", "top.xml")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddPage(makeDoc(t, "top.xml", "table of contents"), []string{"mid.xml"}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddPage(makeDoc(t, "mid.xml", "navigation filler"), []string{"deep.xml"}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddPage(makeDoc(t, "deep.xml",
		"mobile mobile mobile browsing browsing wireless"), nil); err != nil {
		t.Fatal(err)
	}
	order, err := c.ReadingOrder(map[string]int{"mobile": 1})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"top.xml", "mid.xml", "deep.xml"}
	for i, name := range want {
		if order[i] != name {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestPrefetchCandidates(t *testing.T) {
	c := paperCluster(t)
	q := map[string]int{"mobile": 1}
	cands, err := c.PrefetchCandidates("index.xml", q, 64, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 2 {
		t.Fatalf("got %d candidates, want 2 links", len(cands))
	}
	if cands[0].Name != "details.xml" {
		t.Errorf("top candidate %q, want the query-relevant details page", cands[0].Name)
	}
	for _, cand := range cands {
		if cand.TotalPackets < cand.UsefulPackets || cand.UsefulPackets < 1 {
			t.Errorf("candidate %+v has inconsistent packet counts", cand)
		}
	}
}

func TestPrefetchCandidatesValidation(t *testing.T) {
	c := paperCluster(t)
	if _, err := c.PrefetchCandidates("ghost.xml", nil, 64, 1.5); err == nil {
		t.Error("unknown page accepted")
	}
	if _, err := c.PrefetchCandidates("index.xml", nil, 0, 1.5); err == nil {
		t.Error("zero packet size accepted")
	}
	if _, err := c.PrefetchCandidates("index.xml", nil, 64, 0.5); err == nil {
		t.Error("gamma < 1 accepted")
	}
}

func TestPageAccessor(t *testing.T) {
	c := paperCluster(t)
	if _, ok := c.Page("index.xml"); !ok {
		t.Error("Page lookup failed")
	}
	if _, ok := c.Page("ghost.xml"); ok {
		t.Error("ghost page found")
	}
	if c.Root() != "index.xml" || c.Name() != "site" {
		t.Error("accessors broken")
	}
}
