// Package fountain implements the rateless codec of the codec pair:
// instead of fixing N = ⌈γM⌉ cooked packets per generation up front the
// way the Vandermonde coder does, a fountain encoder can produce an
// endless stream of cooked packets, any sufficiently large subset of
// which reconstructs the source. The server streams as long as the
// client grants and the client says stop when it has decoded — the γ
// mis-estimation cost of the fixed-rate code (wasted bytes on overshoot,
// a full extra round-trip on undershoot) disappears, and clients with
// heterogeneous channel quality each stop at their own point of one
// seeded stream.
//
// Construction. Each generation's k raw packets are the source symbols,
// and the stream is systematic, like the paper's own code: cooked packet
// (seed, gen, seq) for seq < k is source symbol seq itself, usable the
// moment it arrives and costing no decode. Every later seq is a dense
// repair: a GF(2^8)-linear combination of all k source symbols, each
// with a non-zero coefficient drawn from a splitmix64 stream keyed by
// (seed, gen, seq). Encoder and decoder agree on the combination without
// shipping it, streams are bit-reproducible under a seed, and frames are
// cacheable by (plan key, codec, seed, gen, seq). A dense repair adds
// nothing only when its restriction to the still-unknown columns is
// already in the span of what was received — about one chance in 256 —
// so a generation decodes from almost exactly k packets at any loss rate.
//
// Unequal error protection. The plan orders raw packets by information
// content, so the systematic prefix carries the most informative units
// first, each readable on arrival: a receiver that terminates on a
// relevance judgment sees them first, exactly as the fixed-rate code's
// IC-ordered clear prefix arranged. Repairs protect every symbol alike;
// a sparse, IC-weighted repair row would rarely touch the few unknown
// columns a systematic prefix leaves behind.
//
// Decoding is erasure.Decoder's, the one decoder of both codecs: the
// stream is a systematic linear code whose repair rows come from this
// package's generator instead of a dispersal matrix (NewDecoder).
package fountain

import (
	"fmt"
	"math"
	"math/bits"

	"mobweb/internal/erasure"
)

// MaxSourceSymbols caps a generation's source symbol count, mirroring
// the Vandermonde coder's MaxCooked so both codecs share plan geometry.
const MaxSourceSymbols = 255

// splitmix64 advances a splitmix64 state and returns the next output.
// It is the only randomness in the package: seeded, allocation-free and
// bit-stable across platforms, so an encoder and a decoder anywhere draw
// the same repair rows for one seed.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// rng is the deterministic per-packet random stream.
type rng struct{ state uint64 }

// newRNG keys a stream by (seed, gen, seq). The three inputs are mixed
// through two splitmix rounds so adjacent seqs produce uncorrelated
// streams.
func newRNG(seed uint64, gen, seq int) rng {
	s := seed
	_ = splitmix64(&s)
	s ^= uint64(uint32(gen))<<32 | uint64(uint32(seq))
	_ = splitmix64(&s)
	return rng{state: s}
}

// next returns the next 64 uniform bits.
func (r *rng) next() uint64 { return splitmix64(&r.state) }

// intn returns a uniform integer in [0, n) via the fixed-point multiply
// reduction (no modulo bias worth caring about at these n).
func (r *rng) intn(n int) int {
	hi, _ := bits.Mul64(r.next(), uint64(n))
	return int(hi)
}

// spec is the seed-independent geometry of one generation's fountain
// streams. Encoder and decoder each build one from the same inputs and
// key the per-packet RNG with the stream seed, so they derive identical
// combinations per (seed, seq).
type spec struct {
	k   int
	gen int
}

// newSpec validates and builds the generation's geometry. weights, one
// non-negative IC weight per source symbol or nil, is validated and
// otherwise unused: the systematic prefix already sends source symbols
// in the plan's IC order, and repairs cover every symbol.
func newSpec(gen, k int, weights []float64) (*spec, error) {
	if k < 1 || k > MaxSourceSymbols {
		return nil, fmt.Errorf("fountain: %d source symbols outside [1, %d]", k, MaxSourceSymbols)
	}
	if weights != nil && len(weights) != k {
		return nil, fmt.Errorf("fountain: %d weights for %d symbols", len(weights), k)
	}
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("fountain: invalid symbol weight %v", w)
		}
	}
	return &spec{k: k, gen: gen}, nil
}

// isSource reports whether cooked packet seq is a source symbol.
func (s *spec) isSource(seq int) bool { return uint(seq) < uint(s.k) }

// combination writes cooked packet (seed, seq)'s GF(2^8) coefficients
// into row, its dense coefficient vector of k zero bytes on entry. A
// source seq gets coefficient 1 on its own column and no RNG draw; a
// repair gets a non-zero coefficient on every column, drawn in column
// order. A pure function of (spec, seed, seq); it allocates nothing.
func (s *spec) combination(seed uint64, seq int, row []byte) {
	if s.isSource(seq) {
		row[seq] = 1
		return
	}
	r := newRNG(seed, s.gen, seq)
	for c := range row[:s.k] {
		row[c] = byte(1 + r.intn(255))
	}
}

// NewDecoder builds the decoding side of generation gen's stream: an
// erasure.Decoder whose repair rows are the stream's combinations. k,
// size and seed must match the encoder exactly; the receiver derives them
// from the layout, the same place the server derived them. weights is
// validated as NewEncoder's is and does not shape the stream.
func NewDecoder(gen int, seed uint64, k, size int, weights []float64) (*erasure.Decoder, error) {
	if size <= 0 {
		return nil, fmt.Errorf("fountain: symbol size %d", size)
	}
	sp, err := newSpec(gen, k, weights)
	if err != nil {
		return nil, err
	}
	return erasure.NewDecoder(k, size, func(seq int, coeffs []byte) { sp.combination(seed, seq, coeffs) }), nil
}
