package lint_test

import (
	"sort"
	"testing"

	"mobweb/internal/lint"
)

const (
	lockorderPath = "mobweb/internal/lint/testdata/src/lockorder"
	funclitPath   = "mobweb/internal/lint/testdata/src/funclit"
)

// The call graph is keyed by types.Func FullName strings because
// cross-package type-checking against export data gives distinct
// *types.Func values for the same function; these tests pin the naming
// scheme and the go flag the analyzers rely on.
func TestCallGraphNodesAndSites(t *testing.T) {
	pkgs, err := lint.Load(".", "./testdata/src/lockorder")
	if err != nil {
		t.Fatal(err)
	}
	prog := lint.NewProgram(pkgs)
	g := prog.Graph

	caller := g.Nodes[lockorderPath+".cThenD"]
	if caller == nil {
		t.Fatalf("no node for cThenD; have %v", g.SortedNames())
	}
	foundLockD := false
	for _, site := range caller.Calls {
		if site.Callee == lockorderPath+".lockD" {
			foundLockD = true
			if site.Go {
				t.Error("plain call recorded as a go site")
			}
		}
	}
	if !foundLockD {
		t.Errorf("cThenD's call to lockD not recorded; sites: %+v", caller.Calls)
	}

	spawner := g.Nodes[lockorderPath+".fThenSpawnE"]
	if spawner == nil {
		t.Fatal("no node for fThenSpawnE")
	}
	foundGo := false
	for _, site := range spawner.Calls {
		if site.Callee == lockorderPath+".lockE" {
			foundGo = true
			if !site.Go {
				t.Error("go lockE() must carry the Go flag (locks excludes goroutine edges)")
			}
		}
	}
	if !foundGo {
		t.Errorf("fThenSpawnE's go statement not recorded; sites: %+v", spawner.Calls)
	}

	names := g.SortedNames()
	if !sort.StringsAreSorted(names) {
		t.Error("SortedNames must be sorted for deterministic diagnostics")
	}
}

// Function literals get their own nodes named parent$N so a goroutine
// body is never analyzed under its spawner's locks.
func TestCallGraphFuncLitNodes(t *testing.T) {
	pkgs, err := lint.Load(".", "./testdata/src/funclit")
	if err != nil {
		t.Fatal(err)
	}
	prog := lint.NewProgram(pkgs)
	lit := prog.Graph.Nodes[funclitPath+".spawn$1"]
	if lit == nil {
		t.Fatalf("no node for spawn's literal; have %v", prog.Graph.SortedNames())
	}
	if lit.Decl != nil || lit.Body == nil {
		t.Error("literal node must carry its Body and no Decl")
	}
	parent := prog.Graph.Nodes[funclitPath+".spawn"]
	if parent == nil || lit.Body.Pos() < parent.Body.Pos() || lit.Body.End() > parent.Body.End() {
		t.Fatal("spawn$1 must be the literal inside spawn's body")
	}
	for _, site := range parent.Calls {
		if site.Call.Pos() >= lit.Body.Pos() && site.Call.End() <= lit.Body.End() {
			t.Errorf("call %s inside the literal recorded on the parent node", site.Callee)
		}
	}
}
