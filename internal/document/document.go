// Package document defines the structured document model of the paper:
// a tree of organizational units at five levels of detail (LOD), with
// byte extents that tie every unit to its span in the serialized
// document. The tree (plus per-unit content scores, computed in package
// content) forms the structural characteristic (SC) used to order
// transmission.
package document

import (
	"fmt"
	"sort"
	"strings"
)

// LOD is a level of detail at which a document can be browsed (§3).
type LOD int

// The five LODs of the paper, coarsest first. They start at 1 so the zero
// value is invalid.
const (
	// LODDocument treats the whole document as one unit — the
	// conventional transmission paradigm.
	LODDocument LOD = iota + 1
	// LODSection ranks and transmits section by section.
	LODSection
	// LODSubsection ranks at subsection granularity.
	LODSubsection
	// LODSubsubsection ranks at subsubsection granularity.
	LODSubsubsection
	// LODParagraph is the finest granularity.
	LODParagraph
)

// AllLODs lists every level coarsest-first, for sweeps over levels.
func AllLODs() []LOD {
	return []LOD{LODDocument, LODSection, LODSubsection, LODSubsubsection, LODParagraph}
}

// String returns the level name used in figures and CLI flags.
func (l LOD) String() string {
	switch l {
	case LODDocument:
		return "document"
	case LODSection:
		return "section"
	case LODSubsection:
		return "subsection"
	case LODSubsubsection:
		return "subsubsection"
	case LODParagraph:
		return "paragraph"
	default:
		return fmt.Sprintf("LOD(%d)", int(l))
	}
}

// ParseLOD converts a level name back to its LOD.
func ParseLOD(s string) (LOD, error) {
	for _, l := range AllLODs() {
		if l.String() == s {
			return l, nil
		}
	}
	return 0, fmt.Errorf("document: unknown LOD %q", s)
}

// Valid reports whether l is one of the five defined levels.
func (l LOD) Valid() bool { return l >= LODDocument && l <= LODParagraph }

// Unit is one organizational unit: the document itself, a (sub(sub))
// section, or a paragraph. Units form a tree rooted at the document unit.
type Unit struct {
	// ID is the unit's index in pre-order traversal, unique per document.
	ID int
	// Level is the unit's LOD.
	Level LOD
	// Label is the hierarchical number, e.g. "3.2.1"; the abstract is
	// section "0" following Table 1's convention.
	Label string
	// Title is the unit heading, empty for paragraphs.
	Title string
	// Text is the unit's own text. For paragraphs it is the paragraph
	// body; for structural units it holds only the heading-adjacent text
	// (typically empty), with body text living in descendants.
	Text string
	// Emphasized lists specially-formatted words (boldface, italics) in
	// the unit's own text; the keyword extractor privileges them (§3.3).
	Emphasized []string
	// Children are the nested units in document order.
	Children []*Unit
	// Start and End delimit the unit's byte extent [Start, End) in the
	// document's serialized body. A parent's extent spans its children.
	Start, End int
}

// Span returns the extent length in bytes.
func (u *Unit) Span() int { return u.End - u.Start }

// IsLeaf reports whether the unit has no children.
func (u *Unit) IsLeaf() bool { return len(u.Children) == 0 }

// Walk visits the unit and all descendants in pre-order, stopping early
// if fn returns false.
func (u *Unit) Walk(fn func(*Unit) bool) bool {
	if !fn(u) {
		return false
	}
	for _, c := range u.Children {
		if !c.Walk(fn) {
			return false
		}
	}
	return true
}

// OwnAndDescendantText concatenates the unit's text with all descendant
// text in document order, separated by single newlines.
func (u *Unit) OwnAndDescendantText() string {
	var parts []string
	u.Walk(func(v *Unit) bool {
		if v.Text != "" {
			parts = append(parts, v.Text)
		}
		return true
	})
	return strings.Join(parts, "\n")
}

// Document is a structured web document.
type Document struct {
	// Name identifies the document (URL path or file name).
	Name string
	// Title is the document title.
	Title string
	// Root is the document-level unit covering the whole body.
	Root *Unit

	byID map[int]*Unit
}

// New assembles a Document from a built unit tree, assigning IDs in
// pre-order and computing byte extents from leaf text lengths. It returns
// an error when root is nil or not at the document LOD, or when any unit
// has an invalid level or a child at a level not strictly finer than its
// parent.
func New(name, title string, root *Unit) (*Document, error) {
	if root == nil {
		return nil, fmt.Errorf("document %q: nil root", name)
	}
	if root.Level != LODDocument {
		return nil, fmt.Errorf("document %q: root level %v, want document", name, root.Level)
	}
	d := &Document{Name: name, Title: title, Root: root, byID: make(map[int]*Unit)}
	id := 0
	valid := true
	var problem error
	root.Walk(func(u *Unit) bool {
		if !u.Level.Valid() {
			problem = fmt.Errorf("document %q: unit %q has invalid level %d", name, u.Label, int(u.Level))
			valid = false
			return false
		}
		for _, c := range u.Children {
			if c.Level <= u.Level {
				problem = fmt.Errorf("document %q: child %q level %v not finer than parent %q level %v",
					name, c.Label, c.Level, u.Label, u.Level)
				valid = false
				return false
			}
		}
		u.ID = id
		d.byID[id] = u
		id++
		return true
	})
	if !valid {
		return nil, problem
	}
	d.layout()
	return d, nil
}

// layout assigns byte extents: each unit's own text occupies len(Text)+1
// bytes (text plus separator) before its children; a parent's extent runs
// from its first byte to its last descendant's end.
func (d *Document) layout() {
	pos := 0
	var place func(u *Unit)
	place = func(u *Unit) {
		u.Start = pos
		if u.Text != "" {
			pos += len(u.Text) + 1
		}
		for _, c := range u.Children {
			place(c)
		}
		u.End = pos
		// A completely empty unit still occupies one byte so that its
		// extent is non-degenerate and addressable by the transmitter.
		if u.End == u.Start {
			pos++
			u.End = pos
		}
	}
	place(d.Root)
}

// Size returns the serialized body size in bytes.
func (d *Document) Size() int { return d.Root.End - d.Root.Start }

// UnitByID returns the unit with the given pre-order ID.
func (d *Document) UnitByID(id int) (*Unit, bool) {
	u, ok := d.byID[id]
	return u, ok
}

// Units returns all units in pre-order.
func (d *Document) Units() []*Unit {
	out := make([]*Unit, 0, len(d.byID))
	d.Root.Walk(func(u *Unit) bool {
		out = append(out, u)
		return true
	})
	return out
}

// UnitsAt returns the organizational units that partition the document at
// the requested LOD, in document order. Units coarser than lod that have
// no descendant at lod stand in for themselves (e.g. a section without
// subsections when browsing at subsection LOD), so the returned extents
// always cover the whole document without overlap.
func (d *Document) UnitsAt(lod LOD) ([]*Unit, error) {
	if !lod.Valid() {
		return nil, fmt.Errorf("document %q: invalid LOD %d", d.Name, int(lod))
	}
	if lod == LODDocument {
		return []*Unit{d.Root}, nil
	}
	var out []*Unit
	var descend func(u *Unit)
	descend = func(u *Unit) {
		if u.Level >= lod || u.IsLeaf() {
			out = append(out, u)
			return
		}
		// The unit's own text (e.g. a section's lead-in) precedes its
		// children but belongs to no finer unit; it stays attached to the
		// first child's ancestor path. We represent it with a synthetic
		// cover below via extents; for ranking purposes the paper groups
		// such text under a "virtual subsection", which the markup layer
		// materializes at parse time.
		for _, c := range u.Children {
			descend(c)
		}
	}
	descend(d.Root)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out, nil
}

// Paragraphs returns the leaf partition of the document.
func (d *Document) Paragraphs() []*Unit {
	units, err := d.UnitsAt(LODParagraph)
	if err != nil {
		// LODParagraph is always valid; reaching here is a bug.
		panic(err)
	}
	return units
}

// Validate checks structural invariants: extents nested and non-
// overlapping, parent extent covering children, IDs unique and dense.
// It returns the first violation found.
func (d *Document) Validate() error {
	var err error
	d.Root.Walk(func(u *Unit) bool {
		if u.Start > u.End {
			err = fmt.Errorf("unit %q: inverted extent [%d, %d)", u.Label, u.Start, u.End)
			return false
		}
		prevEnd := -1
		for _, c := range u.Children {
			if c.Start < u.Start || c.End > u.End {
				err = fmt.Errorf("child %q extent [%d, %d) escapes parent %q [%d, %d)",
					c.Label, c.Start, c.End, u.Label, u.Start, u.End)
				return false
			}
			if c.Start < prevEnd {
				err = fmt.Errorf("child %q overlaps its predecessor", c.Label)
				return false
			}
			prevEnd = c.End
		}
		return true
	})
	if err != nil {
		return err
	}
	for id := 0; id < len(d.byID); id++ {
		if _, ok := d.byID[id]; !ok {
			return fmt.Errorf("unit IDs not dense: %d missing", id)
		}
	}
	return nil
}

// Body renders the serialized document body whose byte offsets match the
// units' extents: the bytes the transmitter packetizes, extent by extent.
func (d *Document) Body() []byte {
	return d.Root.AppendBody(make([]byte, 0, d.Size()))
}

// AppendBody appends the unit's extent of the serialized body,
// Body()[u.Start:u.End], to dst: its text and a newline, its children's
// extents, and a space for a unit with neither (layout's one byte).
func (u *Unit) AppendBody(dst []byte) []byte {
	start := len(dst)
	if u.Text != "" {
		dst = append(append(dst, u.Text...), '\n')
	}
	for _, c := range u.Children {
		dst = c.AppendBody(dst)
	}
	if len(dst) == start {
		dst = append(dst, ' ')
	}
	return dst
}
