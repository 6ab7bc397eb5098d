package core

import (
	"cmp"
	"fmt"
	"hash/crc64"
	"slices"

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
// repair row of a block CookBlock cooks past M. A client that terminates
// early on relevance judgment (the paper's headline scenario) therefore
// never triggers encoding at all: the clear-text prefix is a block of
// its own. The plan keeps no cooked bytes: the planner's shared frame
// cache is the one place they are held.
type generation struct {
	coder     *erasure.Coder
	fenc      *fountain.Encoder // this group's rateless stream, seed-free (see FountainFrame)
	cookedOff int               // first cooked sequence number (global)
	raw       [][]byte          // this group's raw packets (clear-text prefix): views of the plan's stream
}

// Plan is an immutable transmission plan for one document: the ranked
// unit permutation, the packetized permuted stream (the document's bytes,
// held once), and each generation's coders, which cook its packets on
// demand. No field changes once newPlan returns, so plans are safe for
// concurrent use without locks.
type Plan struct {
	doc      *document.Document
	cfg      Config
	segments []UnitSegment // ranked units at cfg.LOD (transmission order)
	accrual  []UnitSegment // paragraph-level segments for IC accounting
	bodySize int           // document body bytes: the stream's permuted body
	m        int           // total raw packets
	n        int           // total cooked packets
	digest   uint64        // CRC-64 of the permuted body: the stream's identity (Layout.Seed)
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
// renders each unit's extent, in that order, straight into the plan's one
// stream of M·sp bytes: the permuted body and a zero tail, of which the
// raw packets are views. scores is indexed by unit ID; a unit past its end
// scores 0.
func newPlan(doc *document.Document, scores []float64, cfg Config) (*Plan, error) {
	units, err := doc.UnitsAt(cfg.LOD)
	if err != nil {
		return nil, err
	}
	// Information content accrues at paragraph granularity regardless of
	// the ranked LOD: §5's model discards a document once the received
	// content passes F even under conventional document-LOD transmission,
	// which requires accounting finer than the transmission units.
	paragraphs := units
	if cfg.LOD != document.LODParagraph {
		paragraphs = doc.Paragraphs()
	}
	score := func(u *document.Unit) float64 {
		if u.ID < len(scores) {
			return scores[u.ID]
		}
		return 0
	}
	// order is the ranking, a permutation of units' indices; units[j]'s
	// paragraphs are paragraphs[first[j]:first[j+1]], found in one merge of
	// the two document-ordered partitions.
	idx := make([]int, 2*len(units)+1)
	order, first := idx[:len(units)], idx[len(units):]
	k, accrualTotal := 0, 0.0
	for j, u := range units {
		first[j] = k
		for ; k < len(paragraphs) && paragraphs[k].End <= u.End; k++ {
			accrualTotal += score(paragraphs[k])
		}
	}
	first[len(units)] = k
	if k < len(paragraphs) {
		return nil, fmt.Errorf("core: paragraph %q outside every ranked unit", paragraphs[k].Label)
	}
	for j := range order {
		order[j] = j
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(score(units[b]), score(units[a])) })

	size := doc.Size()
	p := &Plan{doc: doc, cfg: cfg, bodySize: size, m: erasure.PacketsFor(size, cfg.PacketSize)}
	segs := make([]UnitSegment, 0, len(units)+len(paragraphs))
	p.segments, p.accrual = segs[:0:len(units)], segs[len(units):len(units)]
	stream := make([]byte, 0, p.m*cfg.PacketSize)
	total := 0.0
	for _, j := range order {
		total += score(units[j])
	}
	for _, j := range order {
		u := units[j]
		s := score(u)
		if total > 0 {
			s /= total
		}
		p.segments = append(p.segments, UnitSegment{
			Unit:        u,
			Score:       s,
			PermutedOff: len(stream),
			OrigOff:     u.Start,
			Length:      u.Span(),
		})
		stream = u.AppendBody(stream)
	}
	if len(stream) != p.bodySize {
		return nil, fmt.Errorf("core: ranked units cover %d of %d body bytes; not a partition", len(stream), p.bodySize)
	}
	p.digest = crc64.Checksum(stream, digestTable)

	// The accrual segments come out in transmission order: the ranked
	// units in turn, each one's paragraphs in document order.
	for i, j := range order {
		u, off := units[j], p.segments[i].PermutedOff
		for _, leaf := range paragraphs[first[j]:first[j+1]] {
			s := score(leaf)
			if accrualTotal > 0 {
				s /= accrualTotal
			} else {
				// Uniform fallback so a document with no scored keywords
				// still reaches IC = 1 when complete.
				s = 1 / float64(len(paragraphs))
			}
			p.accrual = append(p.accrual, UnitSegment{
				Unit:        leaf,
				Score:       s,
				PermutedOff: off + (leaf.Start - u.Start),
				OrigOff:     leaf.Start,
				Length:      leaf.Span(),
			})
		}
	}

	// Packetize into generations: raw packet i is the stream's i-th sp
	// bytes, a view capped at its end.
	sp := cfg.PacketSize
	stream = stream[:p.m*sp]
	raw := make([][]byte, p.m)
	for i := range raw {
		raw[i] = stream[i*sp : (i+1)*sp : (i+1)*sp]
	}
	cookedSeq := 0
	for rawOff := 0; rawOff < p.m; rawOff += cfg.MaxGeneration {
		end := min(rawOff+cfg.MaxGeneration, p.m)
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

// Digest returns the CRC-64 (ECMA) of the permuted body: every raw
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

// CookedPayload returns the cooked packet payload for a global sequence
// number. A seq inside a generation's clear-text prefix is served
// straight from the raw packets, and that slice is shared with the plan:
// callers must not modify it. A seq past a prefix is one parity row,
// encoded afresh into a slice of its own on every call. The server does
// not cook through it: CookBlock encodes a run of rows into their frames.
func (p *Plan) CookedPayload(seq int) ([]byte, error) {
	g, idx, err := p.Locate(seq)
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
// (sequence number + CRC + payload): a one-row block.
func (p *Plan) Frame(seq int) ([]byte, error) {
	g, row, err := p.Locate(seq)
	if err != nil {
		return nil, err
	}
	return p.CookBlock(erasure.CodecVandermonde, 0, g, row, row+1)
}

// repairBlockRows is the length of a run of repair rows cooked and cached
// as one frame block.
const repairBlockRows = 32

// BlockSpan returns the frame block that row of generation gen belongs
// to under codec, as rows [lo, hi). A generation's clear-text prefix
// [0, M) is one block; repairs from M on come in runs of
// repairBlockRows, a fixed-rate run clipped at N. A block never
// straddles the source/repair boundary, so a tier that serves only clear
// text never cooks a repair. Under the fixed-rate codec row must be
// below N; a fountain row is any seq of the unbounded stream.
func (p *Plan) BlockSpan(codec erasure.CodecID, gen, row int) (lo, hi int, err error) {
	if gen < 0 || gen >= len(p.gens) {
		return 0, 0, fmt.Errorf("core: generation %d of %d", gen, len(p.gens))
	}
	m, n := p.gens[gen].coder.M(), p.gens[gen].coder.N()
	if codec == erasure.CodecFountain {
		n = packet.MaxFountainSeq + 1
	}
	if row < 0 || row >= n {
		return 0, 0, fmt.Errorf("core: row %d of generation %d outside [0, %d)", row, gen, n)
	}
	if row < m {
		return 0, m, nil
	}
	lo = m + (row-m)/repairBlockRows*repairBlockRows
	return lo, min(lo+repairBlockRows, n), nil
}

// CookBlock marshals rows [lo, hi) of generation gen under codec (and,
// for the fountain, the stream seed) into consecutive wire frames of one
// allocation. Clear-text rows are copied in, and each repair is encoded
// straight into its frame's payload before the header and CRC are
// written over it. Every frame of a codec has one length, so frame i of
// the block starts at i times that length.
func (p *Plan) CookBlock(codec erasure.CodecID, seed uint64, gen, lo, hi int) ([]byte, error) {
	if gen < 0 || gen >= len(p.gens) || lo < 0 || hi <= lo {
		return nil, fmt.Errorf("core: block [%d, %d) of generation %d of %d", lo, hi, gen, len(p.gens))
	}
	g := p.gens[gen]
	var block []byte
	if codec == erasure.CodecFountain {
		enc := g.fenc.WithSeed(seed)
		fl := packet.FountainFrameSize(p.cfg.PacketSize)
		block = make([]byte, 0, (hi-lo)*fl)
		for seq := lo; seq < hi; seq++ {
			base := len(block)
			block = enc.AppendPayload(block[:base+packet.FountainOverhead], seq)
			if err := packet.FinishFountainFrame(block[base:], gen, seq); err != nil {
				return nil, err
			}
		}
	} else {
		m := g.coder.M()
		if hi > g.coder.N() {
			return nil, fmt.Errorf("core: block [%d, %d) of generation %d past its %d rows", lo, hi, gen, g.coder.N())
		}
		fl := packet.FrameSize(p.cfg.PacketSize)
		block = make([]byte, (hi-lo)*fl)
		for row := lo; row < hi; row++ {
			frame := block[(row-lo)*fl : (row-lo+1)*fl]
			if row < m {
				copy(frame[packet.Overhead:], g.raw[row])
			} else if err := g.coder.EncodeParityRowInto(frame[packet.Overhead:], g.raw, row-m); err != nil {
				return nil, err
			}
			if err := packet.FinishFrame(frame, g.cookedOff+row); err != nil {
				return nil, err
			}
		}
	}
	coreMetrics.frameMarshals.Add(int64(hi - lo))
	return block, nil
}

// Locate maps a global cooked sequence number to its dispersal group and
// the row index within that group's cooked packets. The frame cache keys
// entries by (generation, row) so that one cooked frame is shared across
// every connection asking for it.
func (p *Plan) Locate(seq int) (gen, row int, err error) {
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
func (p *Plan) BodySize() int { return p.bodySize }
