package lint

import "go/ast"

// SharedFrameAccessors return slices that alias frame-cache-owned bytes:
// fully cooked wire frames shared by every connection streaming the same
// document. Writing through one corrupts concurrent streams (and, since
// frames are CRC-framed, poisons every later fetch served from the
// entry). The cache is generic; its methods go by their generic
// declaration's name, which is what calleeFunc resolves an instantiated
// call to. A var, not a const map, so fixture tests can retarget it.
var SharedFrameAccessors = map[string]bool{
	"(*mobweb/internal/framecache.Cache[K, V]).Get":       true,
	"(*mobweb/internal/framecache.Cache[K, V]).GetOrLoad": true,
	"(*mobweb/internal/planner.Resolved).Frame":           true,
	"(*mobweb/internal/planner.Resolved).FountainFrame":   true,
}

// FrameMut enforces the frame cache's immutability contract, the sibling
// of planmut's rule 2: slices obtained from framecache.Cache.Get /
// GetOrLoad or planner.Resolved.Frame / FountainFrame are shared across
// connections and must be treated as read-only. Element stores, append
// with such a slice as the destination, and copy into it are flagged;
// re-slicing keeps the taint, and copying into a fresh slice clears it.
// Callers that must mutate a frame (fault injectors) copy it into private
// scratch first — exactly what transport/stream.go does before Inject.
var FrameMut = &Analyzer{
	Name: "framemut",
	Doc: "flag writes through slices returned by the shared frame cache " +
		"(framecache.Cache.Get/GetOrLoad, planner.Resolved.Frame/FountainFrame): cached frames are shared and immutable",
	Run: runFrameMut,
}

func runFrameMut(pass *Pass) error {
	for _, pkg := range pass.Pkgs {
		forEachFunc(pkg.Files, func(_ string, body *ast.BlockStmt) {
			checkSharedSliceWrites(pass, pkg.Info, body, SharedFrameAccessors, "the frame cache")
		})
	}
	return nil
}
