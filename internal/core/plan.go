package core

import (
	"fmt"
	"hash/crc64"
	"sort"

	"mobweb/internal/content"
	"mobweb/internal/document"
	"mobweb/internal/erasure"
	"mobweb/internal/fountain"
	"mobweb/internal/packet"
)

// UnitSegment records where one ranked organizational unit lives in the
// permuted transmission stream.
type UnitSegment struct {
	// Unit is the organizational unit.
	Unit *document.Unit
	// Score is the unit's information content under the plan's notion,
	// normalized so all segments sum to 1 (when any score is positive).
	Score float64
	// PermutedOff is the unit's byte offset in the permuted stream.
	PermutedOff int
	// OrigOff is the unit's byte offset in the original document body.
	OrigOff int
	// Length is the unit's extent length in bytes.
	Length int
}

// generation is one independently-encoded dispersal group. The first M
// cooked packets are byte-identical to the raw packets (systematic
// property), so only the parity tail needs GF(2^8) work, one row per
// CookedPayload call past M. A client that terminates early on relevance
// judgment (the paper's headline scenario) therefore never triggers
// encoding at all. The plan keeps no cooked bytes: the planner's shared
// frame cache is the one place they are held.
type generation struct {
	coder     *erasure.Coder
	fenc      *fountain.Encoder // this group's rateless stream, seed-free (see FountainFrame)
	rawOff    int               // first raw packet index (global)
	cookedOff int               // first cooked sequence number (global)
	raw       [][]byte          // this group's raw packets (clear-text prefix)
}

// Plan is an immutable transmission plan for one document: the ranked
// unit permutation, the packetized permuted stream, and each
// generation's coders, which cook its packets on demand. No field
// changes once newPlan returns, so plans are safe for concurrent use
// without locks.
type Plan struct {
	doc      *document.Document
	cfg      Config
	segments []UnitSegment // ranked units at cfg.LOD (transmission order)
	accrual  []UnitSegment // paragraph-level segments for IC accounting
	body     []byte        // original document body
	permuted []byte        // ranked concatenation of unit extents
	m        int           // total raw packets
	n        int           // total cooked packets
	digest   uint64        // CRC-64 of permuted: the stream's identity (Layout.Seed)
	gens     []*generation
}

// digestTable is the ECMA CRC-64 table behind every plan's digest.
var digestTable = crc64.MakeTable(crc64.ECMA)

// NewPlan ranks the document's units by the SC's scores for the query and
// builds the transmission plan.
func NewPlan(sc *content.SC, queryVec map[string]int, cfg Config) (*Plan, error) {
	if sc == nil {
		return nil, fmt.Errorf("core: nil SC")
	}
	full, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return newPlan(sc.Doc(), sc.Evaluate(queryVec).For(full.Notion), full)
}

// NewPlanWithScores builds a plan from explicit per-unit scores (unit ID →
// score; an absent unit scores 0), ranking the units at cfg.LOD by
// descending score. It serves the simulator, whose synthetic documents
// carry modeled information content rather than keyword-derived scores.
func NewPlanWithScores(doc *document.Document, scores map[int]float64, cfg Config) (*Plan, error) {
	if doc == nil {
		return nil, fmt.Errorf("core: nil document")
	}
	full, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	dense := make([]float64, len(doc.Units()))
	for id, score := range scores {
		if id >= 0 && id < len(dense) {
			dense[id] = score
		}
	}
	return newPlan(doc, dense, full)
}

// newPlan ranks the units at cfg.LOD by descending score, ties in
// document order (the transmission order ⟨n_j1, …, n_jm⟩ of §4.2), and
// packetizes the permuted stream. scores is indexed by unit ID; a unit
// past its end scores 0.
func newPlan(doc *document.Document, scores []float64, cfg Config) (*Plan, error) {
	ranked, err := doc.UnitsAt(cfg.LOD)
	if err != nil {
		return nil, err
	}
	score := func(u *document.Unit) float64 {
		if u.ID < len(scores) {
			return scores[u.ID]
		}
		return 0
	}
	sort.SliceStable(ranked, func(i, j int) bool { return score(ranked[i]) > score(ranked[j]) })

	body := doc.Body()
	p := &Plan{doc: doc, cfg: cfg, body: body}

	// Build the permuted stream and the segment map.
	p.permuted = make([]byte, 0, len(body))
	total := 0.0
	for _, u := range ranked {
		total += score(u)
	}
	for _, u := range ranked {
		s := score(u)
		if total > 0 {
			s /= total
		}
		p.segments = append(p.segments, UnitSegment{
			Unit:        u,
			Score:       s,
			PermutedOff: len(p.permuted),
			OrigOff:     u.Start,
			Length:      u.Span(),
		})
		p.permuted = append(p.permuted, body[u.Start:u.End]...)
	}
	if len(p.permuted) != len(body) {
		return nil, fmt.Errorf("core: ranked units cover %d of %d body bytes; not a partition", len(p.permuted), len(body))
	}
	p.digest = crc64.Checksum(p.permuted, digestTable)

	// Information content accrues at paragraph granularity regardless of
	// the ranked LOD: §5's model discards a document once the received
	// content passes F even under conventional document-LOD transmission,
	// which requires accounting finer than the transmission units.
	paragraphs := doc.Paragraphs()
	accrualTotal := 0.0
	for _, leaf := range paragraphs {
		accrualTotal += score(leaf)
	}
	for _, leaf := range paragraphs {
		seg, ok := p.segmentContaining(leaf)
		if !ok {
			return nil, fmt.Errorf("core: paragraph %q outside every ranked unit", leaf.Label)
		}
		s := score(leaf)
		if accrualTotal > 0 {
			s /= accrualTotal
		} else if len(paragraphs) > 0 {
			// Uniform fallback so a document with no scored keywords
			// still reaches IC = 1 when complete.
			s = 1 / float64(len(paragraphs))
		}
		p.accrual = append(p.accrual, UnitSegment{
			Unit:        leaf,
			Score:       s,
			PermutedOff: seg.PermutedOff + (leaf.Start - seg.Unit.Start),
			OrigOff:     leaf.Start,
			Length:      leaf.Span(),
		})
	}
	sort.Slice(p.accrual, func(i, j int) bool {
		return p.accrual[i].PermutedOff < p.accrual[j].PermutedOff
	})

	// Packetize into generations.
	p.m = erasure.PacketsFor(len(p.permuted), cfg.PacketSize)
	raw, err := erasure.Split(p.permuted, p.m, cfg.PacketSize)
	if err != nil {
		return nil, err
	}
	cookedSeq := 0
	for rawOff := 0; rawOff < p.m; rawOff += cfg.MaxGeneration {
		end := rawOff + cfg.MaxGeneration
		if end > p.m {
			end = p.m
		}
		mb := end - rawOff
		nb := cfg.cookedFor(mb)
		coder, err := erasure.Shared(mb, nb)
		if err != nil {
			return nil, fmt.Errorf("generation at raw %d: %w", rawOff, err)
		}
		// A fountain encoder does not depend on the seed, which only keys
		// the per-packet RNG (Encoder.WithSeed), so one per generation
		// serves every stream of the plan.
		fenc, err := fountain.NewEncoder(len(p.gens), 0, raw[rawOff:end], nil)
		if err != nil {
			return nil, fmt.Errorf("core: fountain generation %d: %w", len(p.gens), err)
		}
		p.gens = append(p.gens, &generation{
			coder:     coder,
			fenc:      fenc,
			rawOff:    rawOff,
			cookedOff: cookedSeq,
			raw:       raw[rawOff:end],
		})
		cookedSeq += nb
	}
	p.n = cookedSeq
	return p, nil
}

// Doc returns the planned document.
func (p *Plan) Doc() *document.Document { return p.doc }

// M returns the total number of raw packets.
func (p *Plan) M() int { return p.m }

// N returns the total number of cooked packets.
func (p *Plan) N() int { return p.n }

// Digest returns the CRC-64 (ECMA) of the permuted stream: every raw
// packet, and so every cooked one, is a function of it and the layout's
// geometry. Plan.Layout carries it as Layout.Seed.
func (p *Plan) Digest() uint64 { return p.digest }

// Generations returns the number of dispersal groups.
func (p *Plan) Generations() int { return len(p.gens) }

// Config returns the resolved configuration (defaults applied).
func (p *Plan) Config() Config { return p.cfg }

// Segments returns the ranked unit segments in transmission order. The
// returned slice is shared; callers must not modify it.
func (p *Plan) Segments() []UnitSegment { return p.segments }

// AccrualSegments returns the paragraph-level segments against which
// information content accrues, in transmission order. The returned slice
// is shared; callers must not modify it.
func (p *Plan) AccrualSegments() []UnitSegment { return p.accrual }

// segmentContaining returns the ranked segment whose unit extent covers
// the leaf.
func (p *Plan) segmentContaining(leaf *document.Unit) (UnitSegment, bool) {
	for _, seg := range p.segments {
		if leaf.Start >= seg.Unit.Start && leaf.End <= seg.Unit.End {
			return seg, true
		}
	}
	return UnitSegment{}, false
}

// CookedPayload returns the cooked packet payload for a global sequence
// number. A seq inside a generation's clear-text prefix is served
// straight from the raw packets, and that slice is shared with the plan:
// callers must not modify it. A seq past a prefix is one parity row,
// encoded afresh on every call; a caller that asks for the same row more
// than once keeps the bytes itself (the planner's frame cache does).
func (p *Plan) CookedPayload(seq int) ([]byte, error) {
	g, idx, err := p.locate(seq)
	if err != nil {
		return nil, err
	}
	gen := p.gens[g]
	if idx < gen.coder.M() {
		return gen.raw[idx], nil
	}
	return gen.coder.EncodeParityRow(gen.raw, idx-gen.coder.M())
}

// Frame marshals the cooked packet at seq into its wire frame
// (sequence number + CRC + payload).
func (p *Plan) Frame(seq int) ([]byte, error) {
	payload, err := p.CookedPayload(seq)
	if err != nil {
		return nil, err
	}
	coreMetrics.frameMarshals.Add(1)
	return packet.Packet{Seq: seq, Payload: payload}.AppendMarshal(nil)
}

// Locate maps a global cooked sequence number to its dispersal group and
// the row index within that group's cooked packets. The frame cache keys
// entries by (generation, row) so that one cooked frame is shared across
// every connection asking for it.
func (p *Plan) Locate(seq int) (gen, row int, err error) {
	return p.locate(seq)
}

// locate maps a global cooked sequence number to (generation, index).
func (p *Plan) locate(seq int) (genIdx, idx int, err error) {
	if seq < 0 || seq >= p.n {
		return 0, 0, fmt.Errorf("core: cooked seq %d outside [0, %d)", seq, p.n)
	}
	for g := range p.gens {
		off := p.gens[g].cookedOff
		if seq < off+p.gens[g].coder.N() {
			return g, seq - off, nil
		}
	}
	return 0, 0, fmt.Errorf("core: cooked seq %d unmapped", seq)
}

// BodySize returns the original document body size in bytes.
func (p *Plan) BodySize() int { return len(p.body) }
