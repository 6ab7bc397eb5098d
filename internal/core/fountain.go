package core

import (
	"fmt"

	"mobweb/internal/erasure"
	"mobweb/internal/fountain"
	"mobweb/internal/packet"
)

// This file is the plan-side fountain glue: per-generation encoders
// built lazily against the plan's raw packets, the IC-derived symbol
// weights that realize unequal error protection, and the fountain frame
// marshaling path mirroring Plan.Frame.

// FountainWeights computes the per-raw-packet IC weights of dispersal
// group g: each accrual segment spreads its score uniformly over the
// raw packets its permuted extent touches, so a packet's weight is the
// information content per byte it carries. Encoder (from the plan) and
// decoder (from the transmitted layout) both call this — the layout
// encoding carries each accrual score as its exact float64 bits, so the
// derived specs are identical.
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
// rateless codec under the given stream seed. Shapes carry N = M: a
// fountain stream has no fixed cooked count, and the receiver tracks
// packets by packed (gen, seq) instead of the cooked seq space.
func (p *Plan) FountainLayout(seed uint64) Layout {
	l := p.Layout()
	l.Codec = erasure.CodecFountain
	l.Seed = seed
	for i := range l.Shapes {
		l.Shapes[i].N = l.Shapes[i].M
	}
	return l
}

// fountainEncoder returns the plan's encoder for generation gen keyed to
// the stream seed. One encoder per generation is built on first use and
// kept — the symbol weights and degree tables do not depend on the seed,
// which only keys the per-packet RNG — so what a plan retains is bounded
// by its generation count however many seeds its clients choose.
// Encoders reference the plan's raw packets without copying; the weights
// come from the same FountainWeights the client will run against the
// transmitted layout.
func (p *Plan) fountainEncoder(gen int, seed uint64) (fountain.Encoder, error) {
	if gen < 0 || gen >= len(p.gens) {
		return fountain.Encoder{}, fmt.Errorf("core: fountain generation %d of %d", gen, len(p.gens))
	}
	p.fmu.Lock()
	defer p.fmu.Unlock()
	if p.fenc == nil {
		p.fenc = make([]*fountain.Encoder, len(p.gens))
	}
	if p.fenc[gen] == nil {
		weights, err := p.Layout().FountainWeights(gen)
		if err != nil {
			return fountain.Encoder{}, err
		}
		enc, err := fountain.NewEncoder(gen, 0, p.gens[gen].raw, weights)
		if err != nil {
			return fountain.Encoder{}, fmt.Errorf("core: fountain generation %d: %w", gen, err)
		}
		p.fenc[gen] = enc
	}
	return p.fenc[gen].WithSeed(seed), nil
}

// FountainFrame marshals rateless packet (gen, seq) into its wire
// frame (codec id + seed + gen + seq + CRC + payload).
func (p *Plan) FountainFrame(seed uint64, gen, seq int) ([]byte, error) {
	enc, err := p.fountainEncoder(gen, seed)
	if err != nil {
		return nil, err
	}
	var hdr [packet.FountainOverhead]byte // stack scratch; FinishFountainFrame overwrites it
	frame := enc.AppendPayload(append([]byte(nil), hdr[:]...), seq)
	if err := packet.FinishFountainFrame(frame, seed, gen, seq); err != nil {
		return nil, err
	}
	coreMetrics.frameMarshals.Add(1)
	return frame, nil
}
