// Fixture for the planmut analyzer, rule 1: field writes on the
// protected plan types inside the owner package. The test retargets
// lint.PlanOwnerPackage at this package, whose Plan/generation mirror
// the shapes in mobweb/internal/core.
package planmutowner

type generation struct {
	parity [][]byte
}

type Plan struct {
	m    int
	segs []int
	gens []*generation
}

// NewPlan is constructor-shaped: writes are allowed.
func NewPlan() *Plan {
	p := &Plan{}
	p.m = 3
	p.segs = append(p.segs, 1)
	p.gens = append(p.gens, &generation{})
	return p
}

// ensureParityRow writes a plan field after construction; no function
// besides a constructor may, however it guards the write.
func (g *generation) ensureParityRow() {
	g.parity = [][]byte{{1}} // want "write to generation.parity outside a constructor"
}

// newDerived exercises the closure rule: a literal inside a constructor
// inherits the constructor's allowance.
func newDerived() *Plan {
	p := &Plan{}
	fill := func() { p.m = 7 }
	fill()
	return p
}

func (p *Plan) Grow() {
	p.m++         // want "write to Plan.m outside a constructor"
	p.segs[0] = 2 // want "write to Plan.segs outside a constructor"
}

func Mutate(p *Plan, g *generation) {
	p.m = 9           // want "write to Plan.m outside a constructor"
	g.parity = nil    // want "write to generation.parity outside a constructor"
	p.gens[0].parity = nil // want "write to generation.parity outside a constructor"
}

// Read-only access is always fine.
func (p *Plan) Read() int { return p.m }

// fountainEncoder's memoizing write is flagged the same way.
func (p *Plan) fountainEncoder() {
	p.gens = append(p.gens[:0], &generation{}) // want "write to Plan.gens outside a constructor"
}
