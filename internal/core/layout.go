package core

import (
	"fmt"
	"math"

	"mobweb/internal/document"
	"mobweb/internal/erasure"
	"mobweb/internal/packet"
)

// SegmentMeta is the serializable description of one plan segment — what
// a client needs to track reception without holding the document.
type SegmentMeta struct {
	// Label is the unit's hierarchical label (e.g. "3.2.1").
	Label string
	// Title is the unit's heading, empty for paragraphs.
	Title string
	// Level is the unit's LOD.
	Level document.LOD
	// Score is the unit's normalized information content.
	Score float64
	// PermutedOff is the byte offset in the permuted stream.
	PermutedOff int
	// OrigOff is the byte offset in the original body.
	OrigOff int
	// Length is the extent length in bytes.
	Length int
}

// GenerationShape is the dispersal shape of one encoding group. The
// dispersal matrix is a pure function of (M, N), so shape alone lets a
// remote client rebuild the decoder.
type GenerationShape struct {
	// M and N are the raw and cooked packet counts of the group.
	M int
	N int
}

// Layout is the complete serializable transmission geometry of a plan:
// everything a receiver needs, nothing the sender must keep secret. It is
// the header the document transmitter sends before the packet stream.
type Layout struct {
	// PacketSize is the raw packet payload size sp.
	PacketSize int
	// BodySize is the original document body size in bytes.
	BodySize int
	// Shapes lists the dispersal groups in stream order.
	Shapes []GenerationShape
	// Ranked lists the transmission-ordered unit segments.
	Ranked []SegmentMeta
	// Accrual lists the paragraph-level accounting segments.
	Accrual []SegmentMeta
	// Codec names the cooked-packet codec; the zero value is the legacy
	// fixed-rate Vandermonde code, so layouts serialized before codecs
	// existed keep their meaning. The server's layout is authoritative:
	// a client that names no codec gets the server's default.
	Codec erasure.CodecID
	// Seed names the cooked stream: the plan's content digest
	// (Plan.Digest), under both codecs. Two servers holding the same
	// document hand out the same seed for the same request, and an edit
	// changes it, so stored or relayed packets are only reused against
	// the content they were cooked from. The fountain also keys its
	// repair combinations with it.
	Seed uint64
}

// Layout extracts the plan's transmission geometry.
func (p *Plan) Layout() Layout {
	l := Layout{
		PacketSize: p.cfg.PacketSize,
		BodySize:   p.bodySize,
		Shapes:     make([]GenerationShape, len(p.gens)),
		Ranked:     make([]SegmentMeta, len(p.segments)),
		Accrual:    make([]SegmentMeta, len(p.accrual)),
		Seed:       p.digest,
	}
	for i := range p.gens {
		l.Shapes[i] = p.Shape(i)
	}
	for i, s := range p.segments {
		l.Ranked[i] = segmentMeta(s)
	}
	for i, s := range p.accrual {
		l.Accrual[i] = segmentMeta(s)
	}
	return l
}

// Shape returns generation g's dispersal shape, the Layout's Shapes[g]
// without copying the layout.
func (p *Plan) Shape(g int) GenerationShape {
	return GenerationShape{M: p.gens[g].coder.M(), N: p.gens[g].coder.N()}
}

func segmentMeta(s UnitSegment) SegmentMeta {
	return SegmentMeta{
		Label:       s.Unit.Label,
		Title:       s.Unit.Title,
		Level:       s.Unit.Level,
		Score:       s.Score,
		PermutedOff: s.PermutedOff,
		OrigOff:     s.OrigOff,
		Length:      s.Length,
	}
}

// within reports whether both of the segment's extents lie inside a body
// of bodySize bytes. The offsets come off the wire: compare by
// subtraction, because offset+length wraps for an offset near MaxInt.
func (seg SegmentMeta) within(bodySize int) bool {
	return seg.Length >= 0 &&
		seg.PermutedOff >= 0 && seg.Length <= bodySize-seg.PermutedOff &&
		seg.OrigOff >= 0 && seg.Length <= bodySize-seg.OrigOff
}

// scoreOK reports whether the segment's score is a finite, non-negative
// number. The binary encoding carries all 64 float bits, so NaN and ±Inf
// do come off the wire, and a NaN accrual score slips past every ordered
// comparison: the receiver's InfoContent would be NaN for good, and
// neither StopAtIC nor a progress threshold would ever fire.
func (seg SegmentMeta) scoreOK() bool {
	return seg.Score >= 0 && !math.IsInf(seg.Score, 1)
}

// MaxRawBytes bounds a layout's raw capacity, M × sp. A receiver sizes
// its body buffer from the header alone, before any packet proves the
// geometry real, so a header may not name more than this.
const MaxRawBytes = 64 << 20

// Validate checks internal consistency: positive packet size, feasible
// shapes within MaxRawBytes, segments within the body, scores finite and
// non-negative.
func (l Layout) Validate() error {
	if l.PacketSize < 1 {
		return fmt.Errorf("core: layout packet size %d", l.PacketSize)
	}
	if l.BodySize < 0 {
		return fmt.Errorf("core: layout body size %d", l.BodySize)
	}
	if len(l.Shapes) == 0 {
		return fmt.Errorf("core: layout has no dispersal groups")
	}
	if !l.Codec.Valid() {
		return fmt.Errorf("core: layout codec %d: %w", uint8(l.Codec), erasure.ErrUnknownCodec)
	}
	if l.Codec == erasure.CodecFountain && len(l.Shapes) > packet.MaxFountainGen+1 {
		return fmt.Errorf("core: fountain layout of %d generations, at most %d", len(l.Shapes), packet.MaxFountainGen+1)
	}
	m := 0
	for i, s := range l.Shapes {
		if s.M < 1 || s.N < s.M || s.N > erasure.MaxCooked {
			return fmt.Errorf("core: layout shape %d = (%d, %d) infeasible", i, s.M, s.N)
		}
		m += s.M
	}
	if l.PacketSize > MaxRawBytes/m {
		return fmt.Errorf("core: layout of %d packets of %d bytes exceeds %d raw bytes", m, l.PacketSize, MaxRawBytes)
	}
	if m*l.PacketSize < l.BodySize {
		return fmt.Errorf("core: layout raw capacity %d below body size %d", m*l.PacketSize, l.BodySize)
	}
	for _, seg := range l.Ranked {
		if !seg.within(l.BodySize) {
			return fmt.Errorf("core: layout segment %q out of bounds", seg.Label)
		}
		if !seg.scoreOK() {
			return fmt.Errorf("core: layout segment %q has score %v", seg.Label, seg.Score)
		}
	}
	accrualTotal := 0.0
	slots := 0
	for _, seg := range l.Accrual {
		if !seg.within(l.BodySize) {
			return fmt.Errorf("core: layout accrual segment %q out of bounds", seg.Label)
		}
		if !seg.scoreOK() {
			return fmt.Errorf("core: layout accrual segment %q has score %v", seg.Label, seg.Score)
		}
		accrualTotal += seg.Score
		if seg.Length > 0 {
			first, last := packetSpan(seg, l.PacketSize)
			slots += last - first + 1
		}
	}
	// Accrual units partition the permuted body, so neighbours share at
	// most a boundary packet and together they lie over at most one packet
	// slot per unit plus one per raw packet. A layout claiming more has
	// units stacked on each other, and a receiver indexing units by packet
	// would pay units × packets for it.
	if slots > len(l.Accrual)+m {
		return fmt.Errorf("core: layout accrual segments overlap: %d packet slots under %d units of %d packets", slots, len(l.Accrual), m)
	}
	// A hostile or buggy server must not be able to convince the client
	// it has more content than exists: accrual mass is capped at 1.
	if accrualTotal > 1+1e-6 {
		return fmt.Errorf("core: layout accrual scores sum to %v > 1", accrualTotal)
	}
	return nil
}

// M returns the total raw packets across groups.
func (l Layout) M() int {
	m := 0
	for _, s := range l.Shapes {
		m += s.M
	}
	return m
}

// N returns the total cooked packets across groups.
func (l Layout) N() int {
	n := 0
	for _, s := range l.Shapes {
		n += s.N
	}
	return n
}

// genBounds returns the generation index plus its raw and cooked offsets
// for a global cooked sequence number.
func (l Layout) genBounds(seq int) (gen, rawOff, cookedOff int, err error) {
	if seq < 0 {
		return 0, 0, 0, fmt.Errorf("core: seq %d negative", seq)
	}
	for g, s := range l.Shapes {
		if seq < cookedOff+s.N {
			return g, rawOff, cookedOff, nil
		}
		rawOff += s.M
		cookedOff += s.N
	}
	return 0, 0, 0, fmt.Errorf("core: seq %d outside [0, %d)", seq, l.N())
}

// CookedGeneration returns the generation a global cooked sequence
// number belongs to, and that generation's local offset within it.
// Persistence layers key packets by (generation, local seq) so stored
// state survives γ-only layout changes that shift global offsets.
func (l Layout) CookedGeneration(seq int) (gen, local int, err error) {
	g, _, cookedOff, err := l.genBounds(seq)
	if err != nil {
		return 0, 0, err
	}
	return g, seq - cookedOff, nil
}

// CookedOffset returns the global cooked sequence number of generation
// g's first row — the inverse of CookedGeneration.
func (l Layout) CookedOffset(g int) (int, error) {
	if g < 0 || g >= len(l.Shapes) {
		return 0, fmt.Errorf("core: generation %d of %d", g, len(l.Shapes))
	}
	off := 0
	for i := 0; i < g; i++ {
		off += l.Shapes[i].N
	}
	return off, nil
}

// SameStream reports (as a nil error) that every packet held or stored
// under l keeps its meaning under o: the two differ at most in
// per-generation N. A γ-only change is exactly that — cooked rows are
// independent of N — while a different packet size, generation split or
// raw count means another packetization, a different codec payloads of
// another kind, and a different seed other content: the document was
// edited, even to the same length, or ranked into another order.
func (l Layout) SameStream(o Layout) error {
	if l.PacketSize != o.PacketSize || l.BodySize != o.BodySize || len(l.Shapes) != len(o.Shapes) {
		return fmt.Errorf("geometry mismatch: %d×%dB/%d gens vs %d×%dB/%d gens",
			l.PacketSize, l.BodySize, len(l.Shapes), o.PacketSize, o.BodySize, len(o.Shapes))
	}
	if l.Codec != o.Codec {
		return fmt.Errorf("codec mismatch: %s vs %s", l.Codec, o.Codec)
	}
	if l.Seed != o.Seed {
		return fmt.Errorf("stream seed %#x != %#x", l.Seed, o.Seed)
	}
	for g := range l.Shapes {
		if l.Shapes[g].M != o.Shapes[g].M {
			return fmt.Errorf("generation %d raw count %d != %d", g, l.Shapes[g].M, o.Shapes[g].M)
		}
	}
	return nil
}

// WireSeq maps (generation, generation-local index) to the sequence
// number the wire, Have lists and receivers key a packet by: the global
// cooked offset under the fixed-rate codec, the packed (gen, seq) pair
// under fountain, whose per-generation streams are unbounded. ok=false
// for an index the layout has no packet at. Persistence layers key by
// the (generation, local) side because it survives γ-only layout changes
// that shift global offsets.
func (l Layout) WireSeq(gen, local int) (seq int, ok bool) {
	if gen < 0 || gen >= len(l.Shapes) || local < 0 {
		return 0, false
	}
	if l.Codec == erasure.CodecFountain {
		return packet.PackSeq(gen, local), local <= packet.MaxFountainSeq
	}
	off, _ := l.CookedOffset(gen)
	return off + local, local < l.Shapes[gen].N
}

// SplitSeq is the inverse of WireSeq: wire sequence number to
// (generation, generation-local index).
func (l Layout) SplitSeq(seq int) (gen, local int, ok bool) {
	if l.Codec == erasure.CodecFountain {
		gen, local = packet.UnpackSeq(seq)
		return gen, local, seq >= 0 && gen < len(l.Shapes)
	}
	gen, local, err := l.CookedGeneration(seq)
	return gen, local, err == nil
}

// ParseFrame parses one wire frame in the layout's frame format without
// copying: the payload aliases frame. It returns the frame's wire
// sequence number alongside packet.ErrCorrupt when the CRC fails (the
// claimed seq, for accounting), and an error for truncated frames.
func (l Layout) ParseFrame(frame []byte) (seq int, payload []byte, err error) {
	if l.Codec == erasure.CodecFountain {
		p, err := packet.ParseFountain(frame)
		return packet.PackSeq(p.Gen, p.Seq), p.Payload, err
	}
	p, err := packet.Parse(frame)
	return p.Seq, p.Payload, err
}

// IsClear reports whether wire seq carries a clear-text (systematic) row
// rather than a repair: under both codecs a generation's first M packets
// are its raw packets. A clear-prefix-only replica streams only these
// rows: clean channels still reconstruct from the M intact data rows of
// each generation, at the cost of extra rounds on lossy channels.
func (l Layout) IsClear(seq int) bool {
	g, local, ok := l.SplitSeq(seq)
	return ok && local < l.Shapes[g].M
}
