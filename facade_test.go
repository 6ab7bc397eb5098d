package mobweb

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateSurface = flag.Bool("update", false, "rewrite testdata/facade.golden from mobweb.go")

// TestFacadeSurface pins the public API: every exported identifier
// mobweb.go declares, one per line and sorted, must match
// testdata/facade.golden, so any growth of the surface is a reviewed
// diff of that file. Regenerate after an intentional change with:
//
//	go test -run TestFacadeSurface -update .
func TestFacadeSurface(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "mobweb.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			if d.Recv == nil {
				names = append(names, "func "+d.Name.Name)
				continue
			}
			recv := d.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			names = append(names, "method "+recv.(*ast.Ident).Name+"."+d.Name.Name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if !s.Name.IsExported() {
						continue
					}
					names = append(names, "type "+s.Name.Name)
					if st, ok := s.Type.(*ast.StructType); ok {
						for _, field := range st.Fields.List {
							for _, n := range field.Names {
								if n.IsExported() {
									names = append(names, "field "+s.Name.Name+"."+n.Name)
								}
							}
						}
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							names = append(names, d.Tok.String()+" "+n.Name)
						}
					}
				}
			}
		}
	}
	sort.Strings(names)
	got := strings.Join(names, "\n") + "\n"

	golden := filepath.Join("testdata", "facade.golden")
	if *updateSurface {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("mobweb.go's exported surface differs from %s; regenerate with -update if the change is intentional:\n%s",
			golden, got)
	}
}

func TestQueryVectorFacade(t *testing.T) {
	qv := QueryVector("mobile mobile web")
	if qv["mobile"] != 2 || qv["web"] != 1 {
		t.Errorf("QueryVector = %v", qv)
	}
}

func TestSimImprovementFacade(t *testing.T) {
	p := DefaultSimParams()
	p.Documents = 10
	p.Repetitions = 1
	p.Caching = true
	p.Irrelevant = 1
	p.Threshold = 0.2
	imp, err := SimImprovement(p, LODParagraph)
	if err != nil {
		t.Fatal(err)
	}
	if imp <= 0.8 {
		t.Errorf("improvement = %v, implausible", imp)
	}
}

func TestPrefetchFacade(t *testing.T) {
	budget := PrefetchBudget(10, 19200, 260)
	if budget != 92 {
		t.Errorf("budget = %d, want 92", budget)
	}
	allocs, err := PlanPrefetch([]PrefetchCandidate{
		{Name: "a", Score: 1, TotalPackets: 60},
		{Name: "b", Score: 0.5, TotalPackets: 60},
	}, budget)
	if err != nil {
		t.Fatal(err)
	}
	if len(allocs) != 2 || allocs[0].Name != "a" || allocs[0].Packets != 60 {
		t.Errorf("allocs = %+v", allocs)
	}
}

func TestAlphaEstimatorFacade(t *testing.T) {
	est, err := NewAlphaEstimator(0.3)
	if err != nil {
		t.Fatal(err)
	}
	est.ObserveWindow(3, 10)
	if got := est.ValueOr(0); got != 0.3 {
		t.Errorf("estimate = %v, want 0.3", got)
	}
	if _, err := NewAlphaEstimator(2); err == nil {
		t.Error("bad weight accepted")
	}
}

func TestClusterFacade(t *testing.T) {
	c, err := NewCluster("site", "a.xml")
	if err != nil {
		t.Fatal(err)
	}
	docA, err := ParseXML([]byte(`<doc><title>A</title><section><paragraph>mobile link hub</paragraph></section></doc>`), "a.xml")
	if err != nil {
		t.Fatal(err)
	}
	docB, err := ParseXML([]byte(`<doc><title>B</title><section><paragraph>mobile web browsing details here</paragraph></section></doc>`), "b.xml")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddPage(docA, []string{"b.xml"}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddPage(docB, nil); err != nil {
		t.Fatal(err)
	}
	scores, err := c.Scores(QueryVector("mobile web"))
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 2 {
		t.Fatalf("scores = %v", scores)
	}
	composed, err := c.Compose(QueryVector("mobile web"))
	if err != nil {
		t.Fatal(err)
	}
	an, err := Analyze(composed)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := an.Plan("mobile web", PlanConfig{LOD: LODSection, PacketSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if plan.N() < plan.M() {
		t.Error("implausible plan shape")
	}
}

func TestProfileFacadeObserve(t *testing.T) {
	doc, err := ParseXML([]byte(`<doc><title>W</title><section><paragraph>wireless erasure coding for mobile packets</paragraph></section></doc>`), "w.xml")
	if err != nil {
		t.Fatal(err)
	}
	an, err := Analyze(doc)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := NewProfile(ProfileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := prof.Observe(ProfileFeedback{SC: an.SC, Relevant: true, Query: "wireless"}); err != nil {
		t.Fatal(err)
	}
	if prof.Score(an.SC) <= 0 {
		t.Error("profile did not learn")
	}
}
