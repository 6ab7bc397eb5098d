package core

import (
	"fmt"

	"mobweb/internal/erasure"
)

// This file is the plan-side fountain glue: the per-packet IC weights,
// the fountain layout and the one-frame cook mirroring Plan.Frame, over
// the per-generation encoders newPlan builds against the plan's raw
// packets.

// FountainWeights computes the per-raw-packet IC weights of dispersal
// group g: each accrual segment spreads its score uniformly over the
// raw packets its permuted extent touches, so a packet's weight is the
// information content per byte it carries. The systematic fountain
// stream does not read them — its protection order is the raw packets'
// IC order — so neither the plan's encoders nor the receiver's decoders
// are built with them; the layout encoding carries each accrual score as
// its exact float64 bits, so both sides still compute identical weights.
func (l Layout) FountainWeights(g int) ([]float64, error) {
	if g < 0 || g >= len(l.Shapes) {
		return nil, fmt.Errorf("core: fountain weights for generation %d of %d", g, len(l.Shapes))
	}
	rawOff := 0
	for i := 0; i < g; i++ {
		rawOff += l.Shapes[i].M
	}
	m := l.Shapes[g].M
	sp := l.PacketSize
	lo, hi := rawOff*sp, (rawOff+m)*sp
	weights := make([]float64, m)
	for _, seg := range l.Accrual {
		if seg.Length == 0 || seg.Score == 0 {
			continue
		}
		segLo, segHi := seg.PermutedOff, seg.PermutedOff+seg.Length
		if segHi <= lo || segLo >= hi {
			continue
		}
		perByte := seg.Score / float64(seg.Length)
		first, last := segLo/sp, (segHi-1)/sp
		for pkt := first; pkt <= last; pkt++ {
			if pkt < rawOff || pkt >= rawOff+m {
				continue
			}
			ov := overlap(segLo, segHi, pkt*sp, (pkt+1)*sp)
			if ov > 0 {
				weights[pkt-rawOff] += perByte * float64(ov)
			}
		}
	}
	return weights, nil
}

func overlap(aLo, aHi, bLo, bHi int) int {
	lo, hi := aLo, aHi
	if bLo > lo {
		lo = bLo
	}
	if bHi < hi {
		hi = bHi
	}
	return hi - lo
}

// FountainLayout returns the plan's transmission geometry for the
// rateless codec under the given stream seed, which a server passes as
// Plan.Digest. Shapes carry N = M: a fountain stream has no fixed cooked
// count, and the receiver tracks packets by packed (gen, seq) instead of
// the cooked seq space.
func (p *Plan) FountainLayout(seed uint64) Layout {
	l := p.Layout()
	l.Codec = erasure.CodecFountain
	l.Seed = seed
	for i := range l.Shapes {
		l.Shapes[i].N = l.Shapes[i].M
	}
	return l
}

// FountainFrame marshals rateless packet (gen, seq) of the stream seed
// into its wire frame (gen + seq + CRC + payload): a one-row block.
func (p *Plan) FountainFrame(seed uint64, gen, seq int) ([]byte, error) {
	return p.CookBlock(erasure.CodecFountain, seed, gen, seq, seq+1)
}
