package core

import "fmt"

// This file is the receiver's persistence seam: the accessors a
// packet store needs to drain a receiver's state to disk, and the
// seeding entry points that refill a fresh receiver from stored state
// after a process restart — so a resumed fetch opens with a Have list
// instead of refetching bytes the radio already delivered.

// Packet returns the held intact cooked payload for a wire sequence
// number: a source's slot of the body buffer, or a repair's copy. The
// returned slice is the receiver's own storage and must not be modified.
func (r *Receiver) Packet(seq int) ([]byte, bool) {
	g, local, ok := r.layout.SplitSeq(seq)
	if !ok {
		return nil, false
	}
	h := &r.held[g]
	if local < len(h.src) {
		if !h.src[local] {
			return nil, false
		}
		return r.slot(h.rawOff + local), true
	}
	pos, ok := h.repair(local)
	if !ok {
		return nil, false
	}
	return h.repairs[pos].Data, true
}

// DecodedGeneration returns generation g's raw packets, decoding on
// first use. It errors while the generation is not reconstructible, and
// for a generation the layout does not have. The returned slices are
// views of the body buffer and must not be modified.
func (r *Receiver) DecodedGeneration(g int) ([][]byte, error) {
	if !r.GenerationReconstructible(g) {
		return nil, ErrNotReconstructible
	}
	if err := r.decode(g); err != nil {
		return nil, err
	}
	return r.gens[g].Raw()
}

// DoneGenerations lists the reconstructible generations in ascending
// order — what a resuming client reports so the transmitter spends no
// air time on generations it can already decode.
func (r *Receiver) DoneGenerations() []int {
	var out []int
	for g := range r.layout.Shapes {
		if r.GenerationReconstructible(g) {
			out = append(out, g)
		}
	}
	return out
}

// SeedDecodedGeneration installs generation g's raw packets wholesale —
// the restart path, where a persistent store holds generations decoded
// in a previous process life. raw must be exactly the generation's M
// packets of the layout's packet size.
//
// Under both codecs raw symbol i is the generation's source packet i, so
// the symbols re-enter as held packets: the generation completes with no
// solve, the Have list covers them, and a server honoring DoneGens or
// Have sends nothing for this generation.
func (r *Receiver) SeedDecodedGeneration(g int, raw [][]byte) error {
	if g < 0 || g >= len(r.layout.Shapes) {
		return fmt.Errorf("core: generation %d of %d", g, len(r.layout.Shapes))
	}
	shape := r.layout.Shapes[g]
	if len(raw) != shape.M {
		return fmt.Errorf("core: generation %d seed has %d raw packets, want %d", g, len(raw), shape.M)
	}
	for i, p := range raw {
		if len(p) != r.layout.PacketSize {
			return fmt.Errorf("core: generation %d raw packet %d is %d bytes, want %d",
				g, i, len(p), r.layout.PacketSize)
		}
	}
	for i, p := range raw {
		seq, _ := r.layout.WireSeq(g, i) // i < M: every layout has the packet
		if err := r.Add(seq, p); err != nil {
			return err
		}
	}
	return nil
}
