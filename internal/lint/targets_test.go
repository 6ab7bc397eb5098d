package lint

import (
	"go/types"
	"testing"
)

// Every blocker the locks analyzer targets must exist in the tree: one
// that was renamed or deleted leaves its rule guarding nothing, silently.
func TestAnalyzerTargetsExist(t *testing.T) {
	pkgs, err := Load(".", "mobweb/...")
	if err != nil {
		t.Fatal(err)
	}
	funcs := make(map[string]bool) // FullName of every function and method
	add := func(fn *types.Func) {
		funcs[fn.FullName()] = true
	}
	for _, pkg := range pkgs {
		for _, p := range append([]*types.Package{pkg.Types}, pkg.Types.Imports()...) {
			for _, name := range p.Scope().Names() {
				switch obj := p.Scope().Lookup(name).(type) {
				case *types.Func:
					add(obj)
				case *types.TypeName:
					if named, ok := obj.Type().(*types.Named); ok {
						for i := 0; i < named.NumMethods(); i++ {
							add(named.Method(i))
						}
					}
				}
			}
		}
	}

	for name := range lockBlockers {
		if !funcs[name] {
			t.Errorf("lockBlockers names %s, which the tree does not have", name)
		}
	}
}
