// Package fountain implements the rateless (LT-style) codec of the
// codec pair: instead of fixing N = ⌈γM⌉ cooked packets per generation
// up front the way the Vandermonde coder does, a fountain encoder can
// produce an endless stream of cooked packets, any sufficiently large
// subset of which reconstructs the source. The server streams open-loop
// and the client says stop when it has decoded — the γ mis-estimation
// cost of the fixed-rate code (wasted bytes on overshoot, a full extra
// round-trip on undershoot) disappears, and one encoded stream can serve
// many clients with heterogeneous channel quality (broadcast).
//
// Construction. Each generation's M raw packets are the source symbols.
// Cooked packet (seed, gen, seq) is a GF(2^8)-linear combination of a
// small pseudo-random subset of them: a degree d is drawn from a robust
// soliton distribution, d distinct source symbols are drawn from an
// information-content-weighted selection distribution, and each gets a
// non-zero random coefficient. Everything is derived from a splitmix64
// stream keyed by (seed, gen, seq), so encoder and decoder agree on the
// combination without shipping it, streams are bit-reproducible under a
// seed, and frames are cacheable by (plan key, codec, seed, gen, seq).
//
// Unequal error protection. The selection distribution is where the
// paper's multi-resolution idea meets rateless coding (the UEP scheme of
// "Unequal Error Protected JPEG 2000 Broadcast Scheme with Progressive
// Fountain Codes"): source packets carrying high-IC units are chosen
// with higher probability, so they appear in more cooked packets and —
// as their rows resolve first — are recovered earlier under loss. A
// receiver that terminates on a relevance judgment therefore sees the
// most informative units first, exactly as the fixed-rate code's
// IC-ordered clear prefix arranged, but robustly under any loss pattern.
//
// Decoding is one online Gauss–Jordan elimination over GF(2^8): the
// decoder keeps at most one pivot row per source column, normalized to 1
// on its own column and zero on every other pivot column, and reduces
// each arriving packet against the pivots it touches exactly once. A
// pivot row with nothing left outside its own column is the source
// symbol — substituting such rows into an arriving packet is the peeling
// step of belief propagation, so whatever a degree-1 ripple would reach
// is exposed no later, and the generation is complete at rank k, the
// first packet at which any decoder could finish. Nothing is solved in
// batch and nothing is memoized: every row operation runs once, through
// the gf256 slice kernels.
package fountain

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Soliton parameters. The robust soliton distribution μ(d) ∝ ρ(d)+τ(d)
// needs a constant c and a failure bound δ; these defaults are tuned for
// the small generations of this system (M ≤ 255 source symbols), where
// full-rank decoding erases most of the asymptotic overhead anyway.
const (
	// SolitonC is the robust-soliton constant c.
	SolitonC = 0.1
	// SolitonDelta is the robust-soliton failure bound δ.
	SolitonDelta = 0.05
	// UEPBoost scales how strongly information content skews the symbol
	// selection distribution: a source symbol with the generation's top
	// IC weight is selected (1 + UEPBoost)× as often as a weightless
	// one. Mild skew preserves near-optimal reception overhead while
	// still recovering high-IC units measurably earlier.
	UEPBoost = 2.0
)

// MaxSourceSymbols caps a generation's source symbol count, mirroring
// the Vandermonde coder's MaxCooked so both codecs share plan geometry.
const MaxSourceSymbols = 255

// splitmix64 advances a splitmix64 state and returns the next output.
// It is the only randomness in the package: seeded, allocation-free and
// bit-stable across platforms, as the nondet analyzer requires of the
// deterministic package set.
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

// float64 returns a uniform float in [0, 1).
func (r *rng) float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// dist is a sampled-by-CDF degree distribution over 1..k.
type dist struct {
	cdf []float64 // cdf[d-1] = P(degree <= d)
}

// robustSoliton builds the robust soliton distribution for k source
// symbols: the ideal soliton ρ plus the spike-and-tail correction τ,
// normalized.
func robustSoliton(k int) *dist {
	if k < 1 {
		panic("fountain: soliton needs k >= 1")
	}
	if k == 1 {
		return &dist{cdf: []float64{1}}
	}
	rho := make([]float64, k+1) // 1-based
	rho[1] = 1 / float64(k)
	for d := 2; d <= k; d++ {
		rho[d] = 1 / (float64(d) * float64(d-1))
	}
	r := SolitonC * math.Log(float64(k)/SolitonDelta) * math.Sqrt(float64(k))
	tau := make([]float64, k+1)
	if r > 0 {
		pivot := int(float64(k) / r)
		if pivot >= 1 {
			for d := 1; d < pivot && d <= k; d++ {
				tau[d] = r / (float64(d) * float64(k))
			}
			if pivot <= k {
				tau[pivot] = r * math.Log(r/SolitonDelta) / float64(k)
			}
		}
	}
	beta := 0.0
	for d := 1; d <= k; d++ {
		beta += rho[d] + tau[d]
	}
	cdf := make([]float64, k)
	acc := 0.0
	for d := 1; d <= k; d++ {
		acc += (rho[d] + tau[d]) / beta
		cdf[d-1] = acc
	}
	cdf[k-1] = 1 // close any rounding gap
	return &dist{cdf: cdf}
}

// sample draws a degree in [1, k].
func (d *dist) sample(r *rng) int {
	x := r.float64()
	return sort.SearchFloat64s(d.cdf, x) + 1
}

// spec is the seed-independent combination geometry of one generation's
// fountain streams: the degree distribution plus the cumulative
// IC-weighted symbol selection weights. Encoder and decoder each build
// one from the same inputs and key the per-packet RNG with the stream
// seed, so they derive identical combinations per (seed, seq).
type spec struct {
	k    int
	gen  int
	dist *dist
	cum  []float64 // cumulative selection weights, cum[k-1] = total
}

// newSpec validates and builds the generation's geometry. weights carries
// one non-negative IC weight per source symbol (nil means uniform); the
// selection weight of symbol i is 1 + UEPBoost·weights[i]/max(weights).
func newSpec(gen, k int, weights []float64) (*spec, error) {
	if k < 1 || k > MaxSourceSymbols {
		return nil, fmt.Errorf("fountain: %d source symbols outside [1, %d]", k, MaxSourceSymbols)
	}
	if weights != nil && len(weights) != k {
		return nil, fmt.Errorf("fountain: %d weights for %d symbols", len(weights), k)
	}
	maxW := 0.0
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("fountain: invalid symbol weight %v", w)
		}
		if w > maxW {
			maxW = w
		}
	}
	cum := make([]float64, k)
	acc := 0.0
	for i := 0; i < k; i++ {
		w := 1.0
		if maxW > 0 {
			w += UEPBoost * weights[i] / maxW
		}
		acc += w
		cum[i] = acc
	}
	return &spec{k: k, gen: gen, dist: robustSoliton(k), cum: cum}, nil
}

// colset is a set of source-symbol columns; MaxSourceSymbols fits its
// 256 bits, so it lives on the stack.
type colset [4]uint64

func (c *colset) has(i int) bool { return c[i>>6]&(1<<(uint(i)&63)) != 0 }
func (c *colset) add(i int)      { c[i>>6] |= 1 << (uint(i) & 63) }

// combination derives cooked packet (seed, seq)'s source subset and
// GF(2^8) coefficients: it writes each chosen symbol's non-zero
// coefficient into row — the packet's dense coefficient vector, k zero
// bytes on entry — and returns the chosen columns. A pure function of
// (spec, seed, seq); it allocates nothing.
//
//mobweb:hot per cooked packet on both sides of the stream
func (s *spec) combination(seed uint64, seq int, row []byte) colset {
	r := newRNG(seed, s.gen, seq)
	d := min(s.dist.sample(&r), s.k)
	var cols colset
	total := s.cum[s.k-1]
	// Weighted distinct sampling by rejection; the skew is bounded
	// (max/min selection weight ≤ 1+UEPBoost) so the retry loop is short
	// except when d approaches k, where the linear fallback finishes the
	// set deterministically.
	n := 0
	for attempts := 0; n < d; attempts++ {
		if attempts > 16*s.k {
			for i := 0; i < s.k && n < d; i++ {
				if !cols.has(i) {
					cols.add(i)
					n++
				}
			}
			break
		}
		x := r.float64() * total
		i := min(sort.SearchFloat64s(s.cum, x), s.k-1)
		if cols.has(i) {
			continue
		}
		cols.add(i)
		n++
	}
	// Coefficients are drawn in ascending symbol order.
	for w, word := range cols {
		for ; word != 0; word &= word - 1 {
			row[w<<6+bits.TrailingZeros64(word)] = byte(1 + r.intn(255)) // non-zero
		}
	}
	return cols
}
