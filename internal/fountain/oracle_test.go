package fountain

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"mobweb/internal/gf256"
	"mobweb/internal/matrix"
)

// This file keeps an older decoder — sparse peeling with a ripple, then a
// batch Gaussian solve of the residual system, retried on every packet
// until it has full rank — a sparse statement of the systematic
// generator, and an incremental rank count, as the oracles the
// production code is compared against after every packet.

// oracleCombination states the generator as index and coefficient lists:
// seq < k is source symbol seq with coefficient 1, any other seq names
// every symbol in ascending order, each with one non-zero draw of the
// (seed, gen, seq) stream.
func oracleCombination(s *spec, seed uint64, seq int) (idx []int, coeffs []byte) {
	if seq >= 0 && seq < s.k {
		return []int{seq}, []byte{1}
	}
	r := newRNG(seed, s.gen, seq)
	for i := 0; i < s.k; i++ {
		idx = append(idx, i)
		coeffs = append(coeffs, byte(1+r.intn(255)))
	}
	return idx, coeffs
}

// pendRow is a received cooked packet reduced to its residual equation:
// the GF(2^8) combination of still-unrecovered source symbols.
type pendRow struct {
	idx    []int  // residual symbol indices, sorted ascending
	coeffs []byte // aligned with idx
	data   []byte // owned residual payload
}

type oracleDecoder struct {
	spec      *spec
	seed      uint64
	size      int
	recovered [][]byte
	nRec      int
	pending   []pendRow
	seen      map[int]bool
	received  int
	complete  bool
}

func newOracleDecoder(t testing.TB, gen int, seed uint64, k, size int) *oracleDecoder {
	t.Helper()
	sp, err := newSpec(gen, k, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &oracleDecoder{spec: sp, seed: seed, size: size, recovered: make([][]byte, k), seen: make(map[int]bool)}
}

func (d *oracleDecoder) add(seq int, payload []byte) {
	if d.complete || d.seen[seq] {
		return
	}
	d.seen[seq] = true
	d.received++
	idx, coeffs := oracleCombination(d.spec, d.seed, seq)
	row := pendRow{data: append([]byte(nil), payload...)}
	for i, j := range idx {
		if d.recovered[j] != nil {
			gf256.MulAddSlice(coeffs[i], row.data, d.recovered[j])
			continue
		}
		row.idx = append(row.idx, j)
		row.coeffs = append(row.coeffs, coeffs[i])
	}
	switch len(row.idx) {
	case 0:
	case 1:
		d.recoverFrom(row)
	default:
		d.pending = append(d.pending, row)
	}
	if d.nRec < d.spec.k && len(d.pending) >= d.spec.k-d.nRec {
		d.tryGaussian()
	}
	d.complete = d.nRec == d.spec.k
}

// recoverFrom resolves a residual degree-1 row into its source symbol
// and ripples the recovery through the pending set.
func (d *oracleDecoder) recoverFrom(row pendRow) {
	work := []pendRow{row}
	for len(work) > 0 {
		r := work[len(work)-1]
		work = work[:len(work)-1]
		j := r.idx[0]
		if d.recovered[j] != nil {
			continue
		}
		sym := make([]byte, d.size)
		gf256.MulSlice(gf256.Inv(r.coeffs[0]), sym, r.data)
		d.recovered[j] = sym
		d.nRec++
		kept := d.pending[:0]
		for _, p := range d.pending {
			pos := sort.SearchInts(p.idx, j)
			if pos < len(p.idx) && p.idx[pos] == j {
				gf256.MulAddSlice(p.coeffs[pos], p.data, sym)
				p.idx = append(p.idx[:pos], p.idx[pos+1:]...)
				p.coeffs = append(p.coeffs[:pos], p.coeffs[pos+1:]...)
			}
			switch len(p.idx) {
			case 0:
			case 1:
				work = append(work, p)
			default:
				kept = append(kept, p)
			}
		}
		d.pending = kept
	}
}

// tryGaussian solves the residual system outright when the pending rows
// span the remaining unknowns.
func (d *oracleDecoder) tryGaussian() {
	var unknowns []int
	col := make(map[int]int)
	for j, sym := range d.recovered {
		if sym == nil {
			col[j] = len(unknowns)
			unknowns = append(unknowns, j)
		}
	}
	u := len(unknowns)
	dense := make([][]byte, len(d.pending))
	for i, p := range d.pending {
		dense[i] = make([]byte, u)
		for t, j := range p.idx {
			dense[i][col[j]] = p.coeffs[t]
		}
	}
	sel, inv := solveDense(dense)
	if inv == nil {
		return
	}
	data := make([][]byte, u)
	for t, ri := range sel {
		data[t] = d.pending[ri].data
	}
	for t, j := range unknowns {
		sym := make([]byte, d.size)
		gf256.MulAddRows(inv.Row(t), sym, data)
		d.recovered[j] = sym
		d.nRec++
	}
	d.pending = nil
}

// solveDense picks, by forward elimination, rows forming an invertible
// square submatrix (one per column) and returns them with its inverse,
// or (nil, nil) while the rows do not span the unknowns.
func solveDense(dense [][]byte) ([]int, *matrix.Matrix) {
	u := len(dense[0])
	work := make([][]byte, len(dense))
	perm := make([]int, len(dense))
	for i, r := range dense {
		work[i] = append([]byte(nil), r...)
		perm[i] = i
	}
	for c := 0; c < u; c++ {
		p := -1
		for r := c; r < len(work); r++ {
			if work[r][c] != 0 {
				p = r
				break
			}
		}
		if p < 0 {
			return nil, nil
		}
		work[c], work[p] = work[p], work[c]
		perm[c], perm[p] = perm[p], perm[c]
		pivInv := gf256.Inv(work[c][c])
		for r := c + 1; r < len(work); r++ {
			if f := work[r][c]; f != 0 {
				gf256.MulAddSlice(gf256.Mul(f, pivInv), work[r], work[c])
			}
		}
	}
	rows := make([][]byte, u)
	for c := range rows {
		rows[c] = dense[perm[c]]
	}
	sq, err := matrix.NewFromRows(rows)
	if err != nil {
		return nil, nil
	}
	inv, err := sq.Invert()
	if err != nil {
		return nil, nil
	}
	return perm[:u], inv
}

// rankOracle counts the rank of the coefficient rows added so far. Each
// kept row is 1 on its own pivot and 0 on the pivots of the rows kept
// before it, so reducing a new row by them in order clears every pivot.
type rankOracle struct {
	rows   [][]byte
	pivots []int
}

// add folds in one full coefficient row and returns the rank.
func (o *rankOracle) add(coeffs []byte) int {
	row := append([]byte(nil), coeffs...)
	for b, p := range o.pivots {
		if f := row[p]; f != 0 {
			gf256.MulAddSlice(f, row, o.rows[b])
		}
	}
	for p, v := range row {
		if v != 0 {
			gf256.MulSlice(gf256.Inv(v), row, row)
			o.rows, o.pivots = append(o.rows, row), append(o.pivots, p)
			break
		}
	}
	return len(o.pivots)
}

// TestCombinationMatchesOracle pins the generator: the dense row
// combination writes must equal the oracle's statement of it for every
// (geometry, seed, seq), or streams stop being bit-identical across
// versions — and a store holding the old stream's packets would decode
// them under the wrong combinations.
func TestCombinationMatchesOracle(t *testing.T) {
	for _, k := range []int{1, 2, 3, 8, 40, 128, 255} {
		sp, err := newSpec(k%5, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []uint64{0, 1, 0xc0ffee, ^uint64(0)} {
			for seq := 0; seq < 300; seq++ {
				row := make([]byte, k)
				sp.combination(seed, seq, row)
				idx, coeffs := oracleCombination(sp, seed, seq)
				want := make([]byte, k)
				for i, j := range idx {
					want[j] = coeffs[i]
				}
				if !bytes.Equal(row, want) {
					t.Fatalf("k=%d seed=%x seq=%d: coefficients %x, oracle %x", k, seed, seq, row, want)
				}
			}
		}
	}
}

// TestDecoderMatchesOracle feeds the same packets to the decoder and to
// the peel + batch-Gauss decoder and compares them after every Add:
// completion on the same packet, equal Received, an exposed set that
// contains the oracle's and grows by what Add reports, and every exposed
// symbol equal to the source.
func TestDecoderMatchesOracle(t *testing.T) {
	const size = 24
	for _, k := range []int{1, 2, 3, 8, 40, 128, 255} {
		for _, alpha := range []float64{0, 0.2, 0.5} {
			for _, order := range []string{"in-order", "shuffled", "duplicated"} {
				name := fmt.Sprintf("k%d/a%.1f/%s", k, alpha, order)
				rng := rand.New(rand.NewSource(int64(k)*131 + int64(alpha*10) + int64(len(order))))
				src := randomSymbols(rng, k, size)
				seed := rng.Uint64()
				enc, err := NewEncoder(2, seed, src, nil)
				if err != nil {
					t.Fatal(err)
				}
				// The arrival schedule: survivors of the loss pattern
				// over a window long enough to decode, then reordered.
				var seqs []int
				for seq := 0; seq < 3*k+64; seq++ {
					if rng.Float64() >= alpha {
						seqs = append(seqs, seq)
					}
				}
				switch order {
				case "shuffled":
					rng.Shuffle(len(seqs), func(i, j int) { seqs[i], seqs[j] = seqs[j], seqs[i] })
				case "duplicated":
					for i := len(seqs) - 1; i > 0; i -= 3 {
						seqs = append(seqs[:i+1], seqs[i:]...)
						seqs[i+1] = seqs[rng.Intn(i+1)]
					}
				}
				dec, err := NewDecoder(2, seed, k, size, nil)
				if err != nil {
					t.Fatal(err)
				}
				orc := newOracleDecoder(t, 2, seed, k, size)
				// exposed counts the readable symbols, checking each against
				// the source and the oracle's recovered set against them.
				exposed := func(step int) int {
					n := 0
					for i := 0; i < k; i++ {
						sym := dec.Symbol(i)
						if sym == nil && orc.recovered[i] != nil {
							t.Fatalf("%s step %d: oracle has symbol %d, decoder does not", name, step, i)
						}
						if sym != nil {
							n++
							if !bytes.Equal(sym, src[i]) {
								t.Fatalf("%s step %d: exposed symbol %d is wrong", name, step, i)
							}
						}
					}
					return n
				}
				for step, seq := range seqs {
					p := enc.Payload(seq)
					was := exposed(step)
					n, err := dec.Add(seq, p)
					if err != nil {
						t.Fatalf("%s: Add(%d): %v", name, seq, err)
					}
					orc.add(seq, p)
					if got := exposed(step); n != got-was {
						t.Fatalf("%s step %d: Add reported %d new symbols, %d became readable", name, step, n, got-was)
					}
					if dec.Complete() != orc.complete {
						t.Fatalf("%s step %d (seq %d): complete %v, oracle %v", name, step, seq, dec.Complete(), orc.complete)
					}
					if dec.Received() != orc.received {
						t.Fatalf("%s step %d: received %d, oracle %d", name, step, dec.Received(), orc.received)
					}
				}
				if !dec.Complete() {
					t.Fatalf("%s: incomplete after %d packets", name, len(seqs))
				}
			}
		}
	}
}

// TestRankDeficientStreamNeverCompletes feeds repair packets spanning
// fewer than k dimensions: no completion, and nothing exposed is wrong.
func TestRankDeficientStreamNeverCompletes(t *testing.T) {
	const k, size = 20, 32
	rng := rand.New(rand.NewSource(77))
	src := randomSymbols(rng, k, size)
	enc, err := NewEncoder(0, 0xfade, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(0, 0xfade, k, size, nil)
	if err != nil {
		t.Fatal(err)
	}
	fed := 0
	for seq := 0; fed < k-1; seq++ {
		if idx, _ := oracleCombination(enc.spec, enc.seed, seq); len(idx) < 2 {
			continue
		}
		p := enc.Payload(seq)
		for rep := 0; rep < 2; rep++ { // a repeat adds no rank
			if _, err := dec.Add(seq, p); err != nil {
				t.Fatal(err)
			}
		}
		fed++
		if dec.Complete() {
			t.Fatalf("complete after %d packets of %d needed", fed, k)
		}
		if _, err := dec.Raw(); err == nil {
			t.Fatalf("Raw succeeded after %d packets of %d needed", fed, k)
		}
		for i := 0; i < k; i++ {
			if sym := dec.Symbol(i); sym != nil && !bytes.Equal(sym, src[i]) {
				t.Fatalf("after %d packets: exposed symbol %d is wrong", fed, i)
			}
		}
	}
	if dec.Received() != k-1 {
		t.Fatalf("received %d, want %d", dec.Received(), k-1)
	}
}
