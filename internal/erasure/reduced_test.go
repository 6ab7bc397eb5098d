package erasure

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"mobweb/internal/gf256"
)

// rowFunc computes dst[i] ^= Σ_j row[j]*srcs[j][i].
type rowFunc func(row, dst []byte, srcs [][]byte)

// oracleArithmetic names the two ways the oracle multiplies: the shipped
// slice kernel (avx2 or table, as the CPU decides), and scalar gf256.Mul
// (log/exp tables), which shares no code with it.
var oracleArithmetic = []struct {
	name string
	rows rowFunc
}{
	{"logexp", func(row, dst []byte, srcs [][]byte) {
		for j, c := range row {
			for i, b := range srcs[j] {
				dst[i] ^= gf256.Mul(c, b)
			}
		}
	}},
	{"table", gf256.MulAddRows},
}

// fullInverseDecode is the decoder Decode replaced, kept as the oracle:
// choose clear rows first and redundant rows in input order, invert the
// full m×m submatrix of the dispersal matrix for the chosen rows, and
// multiply every output row.
func fullInverseDecode(c *Coder, received []Received, rows rowFunc) ([][]byte, error) {
	var chosen, redundant []Received
	for _, r := range received {
		if r.Index < c.m {
			chosen = append(chosen, r)
		} else {
			redundant = append(redundant, r)
		}
	}
	chosen = append(chosen, redundant...)[:c.m]
	sort.Slice(chosen, func(i, j int) bool { return chosen[i].Index < chosen[j].Index })
	indices := make([]int, c.m)
	data := make([][]byte, c.m)
	for i, r := range chosen {
		indices[i], data[i] = r.Index, r.Data
	}
	sub, err := c.dispersal.SubMatrix(indices)
	if err != nil {
		return nil, err
	}
	inv, err := sub.Invert()
	if err != nil {
		return nil, err
	}
	raw := allocPackets(c.m, len(data[0]))
	for i := range raw {
		rows(inv.Row(i), raw[i], data)
	}
	return raw, nil
}

// TestReducedDecodeMatchesFullInverse drops every loss count 0…N−M of
// clear rows (the survivors topped up with shuffled parity) on a few
// shapes and requires the reduced solve to return the full-inverse
// oracle's bytes. The subtest names keep the kernel × workers grid they
// once swept, re-pointed at what is left to vary: the first component is
// the oracle's arithmetic, the second the number of goroutines that
// share the loss sweep, decoding at once on the one Coder.
func TestReducedDecodeMatchesFullInverse(t *testing.T) {
	shapes := []struct{ m, n, size int }{{1, 3, 16}, {4, 12, 64}, {16, 24, 33}, {40, 60, 256}, {128, 192, 48}}
	for _, arith := range oracleArithmetic {
		for _, workers := range []int{1, 3} {
			for _, sh := range shapes {
				t.Run(fmt.Sprintf("%s/workers%d/%dof%d", arith.name, workers, sh.m, sh.n), func(t *testing.T) {
					c, err := NewCoder(sh.m, sh.n)
					if err != nil {
						t.Fatal(err)
					}
					seed := int64(sh.m*1000 + sh.n)
					raw := randomPackets(rand.New(rand.NewSource(seed)), sh.m, sh.size)
					cooked, err := c.Encode(raw)
					if err != nil {
						t.Fatal(err)
					}
					errs := make([]error, workers)
					var wg sync.WaitGroup
					for g := range errs {
						wg.Add(1)
						go func() {
							defer wg.Done()
							rng := rand.New(rand.NewSource(seed + int64(g)))
							for lost := g; lost <= min(sh.n-sh.m, sh.m) && errs[g] == nil; lost += workers {
								errs[g] = checkReducedDecode(c, raw, cooked, lost, rng, arith.rows)
							}
						}()
					}
					wg.Wait()
					for _, err := range errs {
						if err != nil {
							t.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// checkReducedDecode loses `lost` clear rows and presents the rest plus
// all parity, shuffled, so the chosen parity rows vary with the input
// order.
func checkReducedDecode(c *Coder, raw, cooked [][]byte, lost int, rng *rand.Rand, rows rowFunc) error {
	drop := make(map[int]bool, lost)
	for _, i := range rng.Perm(c.M())[:lost] {
		drop[i] = true
	}
	var rec []Received
	for i, p := range cooked {
		if !drop[i] {
			rec = append(rec, Received{Index: i, Data: p})
		}
	}
	rng.Shuffle(len(rec), func(i, j int) { rec[i], rec[j] = rec[j], rec[i] })
	got, err := c.Decode(rec)
	if err != nil {
		return fmt.Errorf("lost %d: %w", lost, err)
	}
	want, err := fullInverseDecode(c, rec, rows)
	if err != nil {
		return fmt.Errorf("lost %d: oracle: %w", lost, err)
	}
	for i := range raw {
		if !bytes.Equal(got[i], want[i]) || !bytes.Equal(got[i], raw[i]) {
			return fmt.Errorf("lost %d: raw[%d] differs from the full-inverse decode", lost, i)
		}
	}
	return nil
}
