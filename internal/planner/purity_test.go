package planner

import (
	"reflect"
	"testing"

	"mobweb/internal/core"
)

// TestResolvedPlansMatchFreshBuilds: every plan the planner hands out —
// built by its load, then served from its cache — equals a plan built
// afresh from the same request, segment for segment and in its layout.
// Whatever writes through a cached plan's shared slices, the planner's
// own bookkeeping included, leaves a difference here.
func TestResolvedPlansMatchFreshBuilds(t *testing.T) {
	p, _ := newTestPlanner(t, Options{}, "a.xml", "b.xml")
	for _, doc := range []string{"a.xml", "b.xml"} {
		for _, lod := range []string{"section", "paragraph"} {
			for _, notion := range []string{"IC", "QIC", "MQIC"} {
				req := Request{Doc: doc, Query: "mobile web browsing", LOD: lod, Notion: notion}
				sc, ok := p.engine.SC(doc)
				if !ok {
					t.Fatalf("%s unknown", doc)
				}
				cfg, queryVec, err := p.resolveParams(req)
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := core.NewPlan(sc, queryVec, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for pass := 0; pass < 2; pass++ {
					plan, err := p.Resolve(req)
					if err != nil {
						t.Fatal(err)
					}
					if plan.Digest() != fresh.Digest() ||
						!reflect.DeepEqual(plan.Segments(), fresh.Segments()) ||
						!reflect.DeepEqual(plan.AccrualSegments(), fresh.AccrualSegments()) ||
						!reflect.DeepEqual(plan.Layout(), fresh.Layout()) {
						t.Fatalf("%+v, pass %d: the planner's plan differs from a fresh build", req, pass)
					}
				}
			}
		}
	}
}
