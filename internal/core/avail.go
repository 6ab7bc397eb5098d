package core

// availIndex is the receiver's running answer to "which bytes are usable
// now": one flag per raw packet, and per accrual unit the number of raw
// packets under it that are still missing. It is built once from the
// layout and kept current as packets arrive — a source is flagged when
// it lands, a generation's other raw packets once, when it completes —
// so a frame costs what it changed instead of a walk over every unit and
// every packet.
//
// Availability only grows until Reset — a held row stays held, a complete
// generation stays complete — so the index never retracts a flag.
type availIndex struct {
	// raw[p]: global raw packet p's bytes are usable.
	raw []bool
	// span[s]: raw packets under Accrual[s]; missing[s]: those of them not
	// yet usable. The unit is available at zero missing, which a
	// zero-length unit is from the start.
	span, missing []int
	// cover[coverOff[p]:coverOff[p+1]] lists the accrual units raw packet
	// p lies under.
	coverOff, cover []int
	// drained[s]: NewUnits handed Accrual[s] out; undrained counts the
	// available units it has not.
	drained   []bool
	undrained int
	// touched[g]: generation g completed since the last fold, which flags
	// the raw packets its sources did not.
	touched []bool
	dirty   bool
	// ic is the accrued information content as of the last unit that
	// completed; icStale asks InfoContent to sum it again.
	ic      float64
	icStale bool
}

// packetSpan returns the first and last raw packet under a segment of
// positive length.
func packetSpan(seg SegmentMeta, sp int) (first, last int) {
	return seg.PermutedOff / sp, (seg.PermutedOff + seg.Length - 1) / sp
}

// newAvailIndex builds the index for a validated layout; Validate bounds
// the cover table at one slot per unit plus one per raw packet.
func newAvailIndex(l Layout) availIndex {
	m, units, sp := l.M(), len(l.Accrual), l.PacketSize
	ints := make([]int, 2*units+m+1)
	flags := make([]bool, m+units+len(l.Shapes))
	ix := availIndex{
		span:     ints[:units],
		missing:  ints[units : 2*units],
		coverOff: ints[2*units:],
		raw:      flags[:m],
		drained:  flags[m : m+units],
		touched:  flags[m+units:],
	}
	// Counting sort of (packet, unit) pairs by packet: count, prefix-sum,
	// then place with coverOff[p] as packet p's cursor, which leaves every
	// offset one packet ahead — the closing copy shifts them back.
	for s, seg := range l.Accrual {
		if seg.Length > 0 {
			first, last := packetSpan(seg, sp)
			ix.span[s] = last - first + 1
			for p := first; p <= last; p++ {
				ix.coverOff[p+1]++
			}
		}
	}
	for p := 0; p < m; p++ {
		ix.coverOff[p+1] += ix.coverOff[p]
	}
	ix.cover = make([]int, ix.coverOff[m])
	for s, seg := range l.Accrual {
		first := seg.PermutedOff / sp
		for p := first; p < first+ix.span[s]; p++ {
			ix.cover[ix.coverOff[p]] = s
			ix.coverOff[p]++
		}
	}
	copy(ix.coverOff[1:], ix.coverOff[:m])
	ix.coverOff[0] = 0
	ix.reset()
	return ix
}

// reset returns the index to the nothing-received state; what depends on
// the layout alone (span, the cover table) stays.
func (ix *availIndex) reset() {
	for _, flags := range [][]bool{ix.raw, ix.drained, ix.touched} {
		for i := range flags {
			flags[i] = false
		}
	}
	copy(ix.missing, ix.span)
	ix.undrained = 0
	for _, n := range ix.span {
		if n == 0 {
			ix.undrained++
		}
	}
	ix.dirty = false
	ix.ic, ix.icStale = 0, true
}

// touch notes that generation g completed, once per completion. The
// fold itself waits until someone asks a progress question: a fetch that
// never asks — no OnProgress, no StopAtIC — pays two stores a generation.
func (ix *availIndex) touch(g int) {
	ix.touched[g] = true
	ix.dirty = true
}

// markRaw flags raw packet p usable and credits the units it lies under;
// p is not flagged yet.
func (ix *availIndex) markRaw(p int) {
	ix.raw[p] = true
	for _, s := range ix.cover[ix.coverOff[p]:ix.coverOff[p+1]] {
		ix.missing[s]--
		if ix.missing[s] == 0 {
			ix.undrained++
			ix.icStale = true
		}
	}
}

// fold brings the index up to date with the decoders: it flags the raw
// packets of each generation that completed since the last fold, once.
// A symbol is usable once its source packet is held — Add flags those as
// they land — or its generation is complete; an incomplete generation's
// Symbol never solves.
func (r *Receiver) fold() {
	ix := &r.avail
	if !ix.dirty {
		return
	}
	ix.dirty = false
	rawOff := 0
	for g, shape := range r.layout.Shapes {
		if ix.touched[g] {
			ix.touched[g] = false
			for p := rawOff; p < rawOff+shape.M; p++ {
				if !ix.raw[p] {
					ix.markRaw(p)
				}
			}
		}
		rawOff += shape.M
	}
}
