package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"mobweb/internal/erasure"
	"mobweb/internal/fountain"
	"mobweb/internal/obs"
	"mobweb/internal/packet"
)

// Receiver accumulates intact cooked packets for one transmission layout
// and answers the client-side questions of §4.2: how much information
// content has arrived, is the document reconstructible, and what can be
// rendered already. It needs only the Layout — the serializable geometry
// a server sends ahead of the packet stream — because the dispersal
// matrices are pure functions of each generation's (M, N).
//
// A Receiver that persists across retransmission rounds realizes the
// paper's Caching strategy ("cache the intact cooked packets received and
// use them to reconstruct the document when a retransmission occurs");
// calling Reset between rounds realizes NoCaching.
//
// Receiver is not safe for concurrent use; the transport layer owns it
// from a single goroutine.
type Receiver struct {
	layout Layout
	// gens holds each generation's decoder; only their repair rows depend
	// on the layout's codec, and everything below is codec-agnostic.
	gens []*erasure.Decoder
	// intact maps wire sequence number (Layout.WireSeq) → payload, so Have
	// lists, persistence and resume address packets the same way under
	// every codec. The decoders hold these payloads by reference.
	intact map[int][]byte
	// slab is the unused tail of the block Add copies payloads into.
	slab []byte
	// avail indexes what is usable so far; Add notes the generation it
	// touched and the progress accessors fold that in before they answer.
	avail availIndex
	// trace, when attached via SetTrace, records decode events into the
	// owning fetch's timeline.
	trace *obs.Trace
}

// NewReceiver returns an empty receiver for the plan's layout.
func NewReceiver(plan *Plan) (*Receiver, error) {
	if plan == nil {
		return nil, fmt.Errorf("core: nil plan")
	}
	return NewReceiverFromLayout(plan.Layout())
}

// NewReceiverFromLayout builds a receiver from transmission geometry
// alone, the client side of the live transport.
func NewReceiverFromLayout(layout Layout) (*Receiver, error) {
	if err := layout.Validate(); err != nil {
		return nil, err
	}
	gens, err := newDecoders(layout)
	if err != nil {
		return nil, err
	}
	return &Receiver{
		layout: layout,
		gens:   gens,
		intact: make(map[int][]byte, layout.M()),
		avail:  newAvailIndex(layout),
	}, nil
}

// newDecoders builds one decoder per generation, and is the one place the
// receiver asks which codec it is decoding: the repair rows are the
// Vandermonde dispersal rows or the rateless stream's combinations.
func newDecoders(layout Layout) ([]*erasure.Decoder, error) {
	gens := make([]*erasure.Decoder, len(layout.Shapes))
	for g, s := range layout.Shapes {
		var err error
		if layout.Codec == erasure.CodecFountain {
			gens[g], err = fountain.NewDecoder(g, layout.Seed, s.M, layout.PacketSize, nil)
		} else {
			var coder *erasure.Coder
			if coder, err = erasure.Shared(s.M, s.N); err == nil {
				gens[g] = coder.NewDecoder(layout.PacketSize)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("generation %d: %w", g, err)
		}
	}
	return gens, nil
}

// Layout returns the receiver's transmission geometry.
func (r *Receiver) Layout() Layout { return r.layout }

// Add records an intact cooked packet by wire sequence number
// (Layout.WireSeq) and feeds it to its generation's decoder. Duplicates
// are ignored. The payload is copied into the receiver's payload blocks,
// which the held packets share, so a packet costs no allocation of its own.
func (r *Receiver) Add(seq int, payload []byte) error {
	if len(payload) != r.layout.PacketSize {
		return fmt.Errorf("core: payload %d bytes, want %d", len(payload), r.layout.PacketSize)
	}
	g, local, ok := r.layout.SplitSeq(seq)
	if !ok {
		return fmt.Errorf("core: seq %d outside the layout", seq)
	}
	if _, dup := r.intact[seq]; dup {
		return nil
	}
	if len(r.slab) < len(payload) {
		r.slab = r.newSlab()
	}
	own := r.slab[:len(payload):len(payload)]
	r.slab = r.slab[len(payload):]
	copy(own, payload)
	r.intact[seq] = own
	_, err := r.gens[g].Add(local, own)
	r.avail.touch(g)
	return err
}

// maxSlab bounds one payload block in bytes.
const maxSlab = 64 << 10

// newSlab returns a block for the next payloads. Its size is the packets
// the layout still lacks — M less those held, at least one packet, at most
// maxSlab bytes — so a whole fetch holds its payloads in one or two
// allocations, and a fetch that stops early leaves one block partly used.
func (r *Receiver) newSlab() []byte {
	sp := r.layout.PacketSize
	n := min(max(r.layout.M()-len(r.intact), 1), max(maxSlab/sp, 1))
	return make([]byte, n*sp)
}

// AddFrame parses a wire frame in the layout's codec, verifies its CRC,
// and records it when intact. It returns the wire sequence number and
// whether the packet was intact. Truncated frames, and fountain frames of
// another stream, return an error. The frame buffer may be reused by the
// caller: ParseFrame only borrows it, and Add copies the payload.
func (r *Receiver) AddFrame(frame []byte) (seq int, intact bool, err error) {
	seq, payload, err := r.layout.ParseFrame(frame)
	if errors.Is(err, packet.ErrCorrupt) {
		return seq, false, nil
	}
	if err == nil {
		err = r.Add(seq, payload)
	}
	return seq, err == nil, err
}

// IntactCount returns the number of distinct intact packets held.
func (r *Receiver) IntactCount() int { return len(r.intact) }

// Held reports whether the packet with the given sequence number is held
// intact; the transport uses it to request selective retransmission.
func (r *Receiver) Held(seq int) bool {
	_, ok := r.intact[seq]
	return ok
}

// Rebase returns a new receiver for newLayout carrying over every held
// packet that exists under both geometries, supporting adaptive-γ
// transports (§4.4): a plan rebuilt with a different redundancy ratio
// keeps the same body, packet size and generation split, and the
// systematic Vandermonde dispersal row j depends only on (M, j) — row j
// of V·inv(V[0..M]) never reads past the top M×M block — so cooked
// packet j is byte-identical under both plans. Rebase therefore refuses
// geometries that differ in anything besides per-generation N (those
// mean the document itself changed, voiding the cache); held packets
// whose local cooked index exceeds the new generation's N are dropped.
func (r *Receiver) Rebase(newLayout Layout) (*Receiver, error) {
	old := r.layout
	if err := old.SameStream(newLayout); err != nil {
		return nil, fmt.Errorf("core: rebase: %w", err)
	}
	nr, err := NewReceiverFromLayout(newLayout)
	if err != nil {
		return nil, err
	}
	nr.trace = r.trace // the rebased receiver keeps feeding the same fetch timeline
	for _, seq := range r.HaveList() {
		g, local, ok := old.SplitSeq(seq)
		if !ok {
			return nil, fmt.Errorf("core: rebase: held seq %d outside the old layout", seq)
		}
		nseq, ok := newLayout.WireSeq(g, local)
		if !ok {
			continue // beyond the new generation's N
		}
		if err := nr.Add(nseq, r.intact[seq]); err != nil {
			return nil, err
		}
	}
	return nr, nil
}

// Reset discards all cached packets — the NoCaching behaviour between
// retransmission rounds (stock HTTP reload).
func (r *Receiver) Reset() {
	r.intact = make(map[int][]byte, r.layout.M())
	r.slab = nil
	// Decoders accumulate state monotonically; a reset means fresh ones.
	// The layout was validated at construction, so rebuilding cannot fail.
	gens, err := newDecoders(r.layout)
	if err != nil {
		panic(fmt.Sprintf("core: reset rebuilt invalid decoders: %v", err))
	}
	r.gens = gens
	r.avail.reset()
}

// rawSymbols returns generation g's raw packets, which the first call
// assembles — solving for any that did not arrive — once the generation
// is complete.
func (r *Receiver) rawSymbols(g int) ([][]byte, error) {
	was := r.gens[g].Decoded()
	raw, err := r.gens[g].Raw()
	r.noteDecode(g, was)
	return raw, err
}

// noteDecode counts and traces generation g's decode — the read that
// first assembled its raw symbols — given whether they were assembled
// before that read.
func (r *Receiver) noteDecode(g int, was bool) {
	if !was && r.gens[g].Decoded() {
		coreMetrics.decodes.Inc()
		r.trace.Record(obs.Event{Type: obs.EventDecode, Gen: g})
	}
}

// GenerationReconstructible reports whether dispersal group g can be
// decoded: the packets held span its raw packets (any M intact rows of
// the fixed-rate code, a full-rank set of the rateless one).
func (r *Receiver) GenerationReconstructible(g int) bool {
	return g >= 0 && g < len(r.gens) && r.gens[g].Complete()
}

// Needed reports how many more intact packets the receiver lacks: for
// each generation not yet reconstructible, its M less the packets it
// holds, and at least one (M held packets that do not span the generation
// lack one more).
func (r *Receiver) Needed() int {
	n := 0
	for g, d := range r.gens {
		if !d.Complete() {
			n += max(r.layout.Shapes[g].M-d.Received(), 1)
		}
	}
	return n
}

// Reconstructible reports whether every generation can be decoded — the
// first termination condition of §4.2.
func (r *Receiver) Reconstructible() bool {
	for g := range r.gens {
		if !r.GenerationReconstructible(g) {
			return false
		}
	}
	return true
}

// Reconstruct decodes all generations and returns the document body in
// original order. It returns ErrNotReconstructible while packets are
// still missing.
func (r *Receiver) Reconstruct() ([]byte, error) {
	if !r.Reconstructible() {
		return nil, ErrNotReconstructible
	}
	// The body is copied straight out of the raw packets, which are the
	// held payloads themselves wherever they arrived.
	raws := make([][]byte, 0, r.layout.M())
	for g := range r.layout.Shapes {
		raw, err := r.rawSymbols(g)
		if err != nil {
			return nil, fmt.Errorf("generation %d: %w", g, err)
		}
		raws = append(raws, raw...)
	}
	sp := r.layout.PacketSize
	out := make([]byte, r.layout.BodySize)
	for _, seg := range r.layout.Ranked {
		dst := out[seg.OrigOff : seg.OrigOff+seg.Length]
		for off := seg.PermutedOff; len(dst) > 0; {
			n := copy(dst, raws[off/sp][off%sp:])
			dst, off = dst[n:], off+n
		}
	}
	return out, nil
}

// InfoContent returns the accrued information content: the score sum of
// all paragraph-level units whose bytes are fully available. Once every
// generation is reconstructible this is 1 (the document is complete).
//
// The value is cached and summed again — over the available units in
// Accrual order, never as a running += in arrival order — only after a
// unit completed, so it is the same float64 whatever order packets came
// in: StopAtIC comparisons turn on the last bit.
func (r *Receiver) InfoContent() float64 {
	r.fold()
	ix := &r.avail
	if ix.icStale {
		total := 0.0
		for s := range r.layout.Accrual {
			if ix.missing[s] == 0 {
				total += r.layout.Accrual[s].Score
			}
		}
		ix.ic, ix.icStale = total, false
	}
	return ix.ic
}

// AvailableUnits returns the paragraph segments whose content is fully
// available, in transmission order — exactly what the rendering manager
// can already display.
func (r *Receiver) AvailableUnits() []SegmentMeta {
	r.fold()
	var out []SegmentMeta
	for s, seg := range r.layout.Accrual {
		if r.avail.missing[s] == 0 {
			out = append(out, seg)
		}
	}
	return out
}

// UnitText extracts a segment's text from available packets. It returns
// ok=false when the segment is not yet fully available.
func (r *Receiver) UnitText(seg SegmentMeta) (string, bool) {
	r.fold()
	sp := r.layout.PacketSize
	if seg.Length < 0 || seg.PermutedOff < 0 || seg.Length > len(r.avail.raw)*sp-seg.PermutedOff {
		return "", false
	}
	if seg.Length == 0 {
		return "", true
	}
	first, last := packetSpan(seg, sp)
	for p := first; p <= last; p++ {
		if !r.avail.raw[p] {
			return "", false
		}
	}
	var text strings.Builder
	text.Grow(seg.Length)
	if !r.writeUnit(&text, seg) {
		return "", false
	}
	return text.String(), true
}

// writeUnit writes out a segment every raw packet of which is available;
// on false it has written the packets before the first unreadable one.
func (r *Receiver) writeUnit(text *strings.Builder, seg SegmentMeta) bool {
	sp := r.layout.PacketSize
	for off := 0; off < seg.Length; {
		pos := seg.PermutedOff + off
		within := pos % sp
		chunk := sp - within
		if chunk > seg.Length-off {
			chunk = seg.Length - off
		}
		data, ok := r.rawBytes(pos / sp)
		if !ok {
			return false
		}
		text.Write(data[within : within+chunk])
		off += chunk
	}
	return true
}

// rawBytes returns raw packet rawIdx's bytes once they are readable: a
// held clear row at once, any other once its generation is complete, the
// first such read running the generation's decode.
func (r *Receiver) rawBytes(rawIdx int) ([]byte, bool) {
	for g, shape := range r.layout.Shapes {
		if rawIdx >= shape.M {
			rawIdx -= shape.M
			continue
		}
		was := r.gens[g].Decoded()
		sym := r.gens[g].Symbol(rawIdx)
		r.noteDecode(g, was)
		return sym, sym != nil
	}
	return nil, false
}

// RenderedUnit pairs an available unit with its text, for progressive
// rendering by a client ("the client renders each organizational unit
// incrementally at the proper position in the browsing window", §3.3).
type RenderedUnit struct {
	// Segment is the unit's layout segment.
	Segment SegmentMeta
	// Text is the unit's body text.
	Text string
}

// Render returns every fully-available unit with its text, in
// transmission order.
func (r *Receiver) Render() []RenderedUnit {
	r.fold()
	return r.render(false)
}

// NewUnits returns the units that became fully available since the last
// call (or since construction or Reset), with their text, in transmission
// order. Over a receiver's life the drains add up to Render(): each unit
// exactly once. It is the progressive renderer's accessor — a frame that
// completed no unit costs it nothing.
func (r *Receiver) NewUnits() []RenderedUnit {
	r.fold()
	ix := &r.avail
	if ix.undrained == 0 {
		return nil
	}
	out := r.render(true)
	for s := range ix.drained {
		ix.drained[s] = ix.missing[s] == 0
	}
	ix.undrained = 0
	return out
}

// render pairs the available accrual units — all of them, or only those
// NewUnits has not handed out — with their text. The texts are substrings
// of one string, built in one allocation.
func (r *Receiver) render(undrainedOnly bool) []RenderedUnit {
	ix := &r.avail
	picked := func(s int) bool { return ix.missing[s] == 0 && !(undrainedOnly && ix.drained[s]) }
	n, size := 0, 0
	for s, seg := range r.layout.Accrual {
		if picked(s) {
			n++
			size += seg.Length
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]RenderedUnit, 0, n)
	var text strings.Builder
	text.Grow(size)
	for s, seg := range r.layout.Accrual {
		if !picked(s) {
			continue
		}
		// A builder's string is never written again, only extended, so a
		// unit's text can be cut from it before the next unit is added.
		start := text.Len()
		if r.writeUnit(&text, seg) {
			out = append(out, RenderedUnit{Segment: seg, Text: text.String()[start:]})
		}
	}
	return out
}

// HaveList returns every held sequence number in ascending order — the
// resume/retransmission Have list, in the layout's wire sequence space.
func (r *Receiver) HaveList() []int {
	out := make([]int, 0, len(r.intact))
	for seq := range r.intact {
		out = append(out, seq)
	}
	sort.Ints(out)
	return out
}

var _ fmt.Stringer = (*Receiver)(nil)

// String summarizes receiver progress for logs.
func (r *Receiver) String() string {
	return fmt.Sprintf("receiver{intact %d/%d, IC %.3f, reconstructible %v}",
		r.IntactCount(), r.layout.N(), r.InfoContent(), r.Reconstructible())
}
