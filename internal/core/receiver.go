package core

import (
	"errors"
	"fmt"
	"slices"
	"unsafe"

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
	// buf is the permuted body, M·sp bytes: raw packet p at buf[p·sp:].
	// Add copies a source straight into its slot, and the decoders hold
	// that slot and solve the missing ones into theirs, so it is the only
	// copy of a source the receiver keeps. Texts are views of it (view).
	buf []byte
	// held records the intact packets per generation, in the order of
	// their wire sequence numbers (Layout.WireSeq), so Have lists,
	// persistence and resume address packets the same way under every
	// codec; intact counts them.
	held   []heldGen
	intact int
	// slab is the unused tail of the block Add copies repair payloads into.
	slab []byte
	// avail indexes what is usable so far; Add flags a source as it lands
	// and notes a generation that completes, and the progress accessors
	// fold that in before they answer.
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
	r := &Receiver{layout: layout, avail: newAvailIndex(layout)}
	if err := r.clear(); err != nil {
		return nil, err
	}
	return r, nil
}

// heldGen is one generation's record of the intact packets held.
type heldGen struct {
	// src[i]: source i arrived; its bytes are raw packet rawOff+i's slot.
	src []bool
	// repairs are the held repair rows in ascending index, each with its
	// payload in a repair block.
	repairs []erasure.Received
	// rawOff is the generation's first raw packet, seqOff the wire
	// sequence number of its packet 0: packet i is seqOff+i on the wire.
	rawOff, seqOff int
}

// repair returns the position of repair index among the held repairs,
// and whether it is held there.
func (h *heldGen) repair(index int) (int, bool) {
	return slices.BinarySearchFunc(h.repairs, index, func(rep erasure.Received, i int) int { return rep.Index - i })
}

// clear gives the receiver a fresh body buffer, fresh decoders that solve
// into it and an empty held record: the nothing-received state. The old
// buffer is left as it was, for the texts cut from it.
func (r *Receiver) clear() error {
	l := r.layout
	sp := l.PacketSize
	r.buf = make([]byte, l.M()*sp)
	gens, err := newDecoders(l)
	if err != nil {
		return err
	}
	r.gens = gens
	flags := make([]bool, l.M())
	r.held = make([]heldGen, len(l.Shapes))
	rawOff := 0
	for g, shape := range l.Shapes {
		end := rawOff + shape.M
		gens[g].SolveInto(r.buf[rawOff*sp : end*sp : end*sp])
		seqOff, _ := l.WireSeq(g, 0) // every generation has packet 0
		r.held[g] = heldGen{src: flags[rawOff:end:end], rawOff: rawOff, seqOff: seqOff}
		rawOff = end
	}
	r.intact, r.slab = 0, nil
	return nil
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
// are ignored. A source is copied into its slot of the body buffer —
// unless the slot was already written, by this source or by a solve — and
// a repair into the receiver's repair block, so a packet costs no
// allocation of its own.
func (r *Receiver) Add(seq int, payload []byte) error {
	if len(payload) != r.layout.PacketSize {
		return fmt.Errorf("core: payload %d bytes, want %d", len(payload), r.layout.PacketSize)
	}
	g, local, ok := r.layout.SplitSeq(seq)
	if !ok {
		return fmt.Errorf("core: seq %d outside the layout", seq)
	}
	return r.add(g, local, payload)
}

// add is Add for a packet payload of the layout's size at local index
// local of generation g.
func (r *Receiver) add(g, local int, payload []byte) error {
	h, d := &r.held[g], r.gens[g]
	var own []byte
	if local < len(h.src) {
		if h.src[local] {
			return nil
		}
		h.src[local] = true
		r.intact++
		if p := h.rawOff + local; !r.avail.raw[p] {
			r.avail.markRaw(p)
		}
		if d.Decoded() {
			return nil // the solve wrote this slot, with these bytes
		}
		own = r.slot(h.rawOff + local)
		copy(own, payload)
	} else {
		pos, dup := h.repair(local)
		if dup {
			return nil
		}
		own = r.keep(g, payload)
		if h.repairs == nil {
			// Room for the repairs the generation still misses, in one
			// allocation.
			h.repairs = slices.Grow(h.repairs, max(r.lacking(g), 1))
		}
		h.repairs = slices.Insert(h.repairs, pos, erasure.Received{Index: local, Data: own})
		r.intact++
	}
	complete := d.Complete()
	_, err := d.Add(local, own)
	if !complete && d.Complete() {
		r.avail.touch(g)
	}
	return err
}

// slot returns raw packet p's slot of the body buffer.
func (r *Receiver) slot(p int) []byte {
	sp := r.layout.PacketSize
	return r.buf[p*sp : (p+1)*sp : (p+1)*sp]
}

// lacking returns how many more intact packets generation g needs: its M
// less the packets its decoder consumed, and at least one (M held packets
// that do not span the generation lack one more); none once complete.
func (r *Receiver) lacking(g int) int {
	if d := r.gens[g]; !d.Complete() {
		return max(r.layout.Shapes[g].M-d.Received(), 1)
	}
	return 0
}

// keep copies a repair payload of generation g into the repair block.
// A block holds what the generation still lacks (one packet once it is
// complete), so the repairs that complete a generation share one
// allocation, and a fetch whose sources all arrive keeps none.
func (r *Receiver) keep(g int, payload []byte) []byte {
	sp := len(payload)
	if len(r.slab) < sp {
		r.slab = make([]byte, max(r.lacking(g), 1)*sp)
	}
	own := r.slab[:sp:sp]
	r.slab = r.slab[sp:]
	copy(own, payload)
	return own
}

// AddFrame parses a wire frame in the layout's codec, verifies its CRC,
// and records it when intact. It returns the wire sequence number and
// whether the packet was intact. A frame whose CRC passes but whose seq
// lies outside the layout or whose payload is not one packet long is not
// intact either: it is a CRC false accept of a corrupted frame, which
// Add would refuse. Truncated frames return an error. The frame buffer
// may be reused by the caller: ParseFrame only borrows it, and Add
// copies the payload.
func (r *Receiver) AddFrame(frame []byte) (seq int, intact bool, err error) {
	seq, payload, err := r.layout.ParseFrame(frame)
	if errors.Is(err, packet.ErrCorrupt) {
		return seq, false, nil
	}
	if err != nil {
		return seq, false, err
	}
	g, local, ok := r.layout.SplitSeq(seq)
	if !ok || len(payload) != r.layout.PacketSize {
		return seq, false, nil
	}
	err = r.add(g, local, payload)
	return seq, err == nil, err
}

// IntactCount returns the number of distinct intact packets held.
func (r *Receiver) IntactCount() int { return r.intact }

// Held reports whether the packet with the given sequence number is held
// intact; the transport uses it to request selective retransmission.
func (r *Receiver) Held(seq int) bool {
	_, ok := r.Packet(seq)
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
		payload, _ := r.Packet(seq)
		if err := nr.Add(nseq, payload); err != nil {
			return nil, err
		}
	}
	return nr, nil
}

// Reset discards all cached packets — the NoCaching behaviour between
// retransmission rounds (stock HTTP reload). The receiver moves on to a
// fresh body buffer; texts already handed out keep the old one.
func (r *Receiver) Reset() {
	// Decoders accumulate state monotonically; a reset means fresh ones.
	// The layout was validated at construction, so rebuilding cannot fail.
	if err := r.clear(); err != nil {
		panic(fmt.Sprintf("core: reset rebuilt invalid decoders: %v", err))
	}
	r.avail.reset()
}

// decode makes every raw packet of a complete generation g readable: the
// first call solves for those that did not arrive, and is counted and
// traced as the generation's decode.
func (r *Receiver) decode(g int) error {
	was := r.gens[g].Decoded()
	err := r.gens[g].Solve()
	r.noteDecode(g, was)
	return err
}

// noteDecode counts and traces generation g's decode — the read that
// first made its raw symbols readable — given whether they were readable
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
	for g := range r.gens {
		n += r.lacking(g)
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
	for g := range r.gens {
		if err := r.decode(g); err != nil {
			return nil, fmt.Errorf("generation %d: %w", g, err)
		}
	}
	// Each ranked segment is one run of the permuted body buffer. The
	// body is the caller's: no text aliases it.
	out := make([]byte, r.layout.BodySize)
	for _, seg := range r.layout.Ranked {
		copy(out[seg.OrigOff:seg.OrigOff+seg.Length], r.buf[seg.PermutedOff:])
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
	return r.text(seg)
}

// text returns an available segment's text as a view of the body buffer,
// after running the decodes its raw packets wait on. ok=false means a
// decode failed.
func (r *Receiver) text(seg SegmentMeta) (string, bool) {
	if seg.Length == 0 {
		return "", true
	}
	first, last := packetSpan(seg, r.layout.PacketSize)
	for p := first; p <= last; p++ {
		if !r.readable(p) {
			return "", false
		}
	}
	return view(r.buf[seg.PermutedOff : seg.PermutedOff+seg.Length]), true
}

// view returns b as a string without a copy. It is sound because of the
// body buffer's write-once rule: a raw slot is written exactly once — by
// Add when its source arrives, or by its generation's solve — before a
// read cuts a view of it, and never again, and Reset and Rebase move on
// to a fresh buffer instead of clearing the old one. So the bytes a text
// covers never change while it lives, and another goroutine may read it
// while packets keep arriving. availIndex flags a complete generation's
// raw packets usable before their solve; a read (readable) runs it first.
func view(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// readable reports whether raw packet rawIdx's bytes can be read: a held
// source at once, any other once its generation is complete, the first
// such read running the generation's decode.
func (r *Receiver) readable(rawIdx int) bool {
	for g, shape := range r.layout.Shapes {
		if rawIdx >= shape.M {
			rawIdx -= shape.M
			continue
		}
		was := r.gens[g].Decoded()
		ok := r.gens[g].Symbol(rawIdx) != nil
		r.noteDecode(g, was)
		return ok
	}
	return false
}

// RenderedUnit pairs an available unit with its text, for progressive
// rendering by a client ("the client renders each organizational unit
// incrementally at the proper position in the browsing window", §3.3).
type RenderedUnit struct {
	// Segment is the unit's layout segment.
	Segment SegmentMeta
	// Text is the unit's body text: a view of the receiver's body buffer,
	// never written again once cut, so keeping a text keeps that buffer
	// alive.
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
// NewUnits has not handed out — with their text, a view of the body
// buffer.
func (r *Receiver) render(undrainedOnly bool) []RenderedUnit {
	ix := &r.avail
	picked := func(s int) bool { return ix.missing[s] == 0 && !(undrainedOnly && ix.drained[s]) }
	n := 0
	for s := range r.layout.Accrual {
		if picked(s) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]RenderedUnit, 0, n)
	for s, seg := range r.layout.Accrual {
		if !picked(s) {
			continue
		}
		if text, ok := r.text(seg); ok {
			out = append(out, RenderedUnit{Segment: seg, Text: text})
		}
	}
	return out
}

// HaveList returns every held sequence number in ascending order — the
// resume/retransmission Have list, in the layout's wire sequence space.
// The held record keeps that order: generations, then sources before
// repairs, each ascending.
func (r *Receiver) HaveList() []int {
	out := make([]int, 0, r.intact)
	for _, h := range r.held {
		for i, ok := range h.src {
			if ok {
				out = append(out, h.seqOff+i)
			}
		}
		for _, rep := range h.repairs {
			out = append(out, h.seqOff+rep.Index)
		}
	}
	return out
}

var _ fmt.Stringer = (*Receiver)(nil)

// String summarizes receiver progress for logs.
func (r *Receiver) String() string {
	return fmt.Sprintf("receiver{intact %d/%d, IC %.3f, reconstructible %v}",
		r.IntactCount(), r.layout.N(), r.InfoContent(), r.Reconstructible())
}
