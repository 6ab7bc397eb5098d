package fountain

import (
	"fmt"
	"slices"

	"mobweb/internal/gf256"
)

// Encoder produces the rateless cooked-packet stream for one generation.
// It is immutable after construction and safe for concurrent Payload
// calls: every packet is a pure function of (seed, gen, seq) and the
// source symbols, which is what makes frames cacheable and lets
// concurrent streams share them.
type Encoder struct {
	spec *spec
	seed uint64
	src  [][]byte
	size int
}

// NewEncoder builds the stream for generation gen under the given seed.
// src holds the generation's equal-length source symbols (raw packets),
// in the order the systematic prefix sends them. weights, one IC weight
// per symbol or nil, is validated but does not shape the stream. The src
// slices are retained, not copied — callers must not mutate them
// afterwards.
func NewEncoder(gen int, seed uint64, src [][]byte, weights []float64) (*Encoder, error) {
	if len(src) == 0 {
		return nil, fmt.Errorf("fountain: no source symbols")
	}
	size := len(src[0])
	if size == 0 {
		return nil, fmt.Errorf("fountain: empty source symbols")
	}
	for i, s := range src {
		if len(s) != size {
			return nil, fmt.Errorf("fountain: symbol %d is %d bytes, want %d", i, len(s), size)
		}
	}
	sp, err := newSpec(gen, len(src), weights)
	if err != nil {
		return nil, err
	}
	return &Encoder{spec: sp, seed: seed, src: src, size: size}, nil
}

// WithSeed returns the encoder of the same generation's stream under
// another seed. Everything but the per-packet RNG key is seed-independent
// and shared, so a server keeps one Encoder per generation however many
// seeds its clients choose.
func (e *Encoder) WithSeed(seed uint64) Encoder {
	c := *e
	c.seed = seed
	return c
}

// K returns the number of source symbols.
func (e *Encoder) K() int { return e.spec.k }

// Payload cooks packet seq into a fresh slice.
func (e *Encoder) Payload(seq int) []byte {
	return e.AppendPayload(nil, seq)
}

// AppendPayload cooks packet seq and appends it to dst, returning the
// extended slice; with room in dst it allocates nothing. A source seq is
// a copy of its symbol; a repair's combination is derived
// deterministically and accumulated through the shared slice kernels.
func (e *Encoder) AppendPayload(dst []byte, seq int) []byte {
	fountainMetrics.packetsGenerated.Inc()
	if e.spec.isSource(seq) {
		return append(dst, e.src[seq]...)
	}
	var buf [MaxSourceSymbols]byte // the kernel does not retain it: stays on the stack
	co := buf[:e.spec.k]
	e.spec.combination(e.seed, seq, co)
	off := len(dst)
	// Not append(dst, make(...)...): the race build compiles that make as
	// a real allocation.
	dst = slices.Grow(dst, e.size)[:off+e.size]
	clear(dst[off:])
	gf256.MulAddRows(co, dst[off:], e.src)
	return dst
}
