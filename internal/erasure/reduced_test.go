package erasure

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"mobweb/internal/gf256"
)

// fullInverseDecode is the decoder Decode replaced, kept as the oracle:
// choose clear rows first and redundant rows in input order, invert the
// full m×m submatrix of the dispersal matrix for the chosen rows, and
// multiply every output row.
func fullInverseDecode(c *Coder, received []Received) ([][]byte, error) {
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
	rows := make([]int, c.m)
	data := make([][]byte, c.m)
	for i, r := range chosen {
		rows[i], data[i] = r.Index, r.Data
	}
	sub, err := c.dispersal.SubMatrix(rows)
	if err != nil {
		return nil, err
	}
	inv, err := sub.Invert()
	if err != nil {
		return nil, err
	}
	raw := allocPackets(c.m, len(data[0]))
	for i := range raw {
		accumulateRow(raw[i], inv.Row(i), data)
	}
	return raw, nil
}

// TestReducedDecodeMatchesFullInverse drops every loss count 0…N−M of
// clear rows (the survivors topped up with shuffled parity) on a few
// shapes and requires the reduced solve to return the full-inverse
// oracle's bytes, under both GF(2^8) kernels and both row schedulers.
func TestReducedDecodeMatchesFullInverse(t *testing.T) {
	prevKernel := gf256.KernelName()
	defer func() {
		if err := gf256.SetKernel(prevKernel); err != nil {
			t.Fatal(err)
		}
	}()
	shapes := []struct{ m, n, size int }{{1, 3, 16}, {4, 12, 64}, {16, 24, 33}, {40, 60, 256}, {128, 192, 48}}
	for _, kernel := range gf256.KernelNames() {
		if err := gf256.SetKernel(kernel); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			for _, sh := range shapes {
				t.Run(fmt.Sprintf("%s/workers%d/%dof%d", kernel, workers, sh.m, sh.n), func(t *testing.T) {
					withWorkers(t, workers, func() { checkReducedDecode(t, sh.m, sh.n, sh.size) })
				})
			}
		}
	}
}

func checkReducedDecode(t *testing.T, m, n, size int) {
	rng := rand.New(rand.NewSource(int64(m*1000 + n)))
	c, err := NewCoder(m, n)
	if err != nil {
		t.Fatal(err)
	}
	raw := randomPackets(rng, m, size)
	cooked, err := c.Encode(raw)
	if err != nil {
		t.Fatal(err)
	}
	maxLost := n - m
	if maxLost > m {
		maxLost = m
	}
	for lost := 0; lost <= maxLost; lost++ {
		// Lose `lost` clear rows; present the rest plus all parity,
		// shuffled, so the chosen parity rows vary with the input order.
		drop := make(map[int]bool, lost)
		for _, i := range rng.Perm(m)[:lost] {
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
			t.Fatalf("lost %d: %v", lost, err)
		}
		want, err := fullInverseDecode(c, rec)
		if err != nil {
			t.Fatalf("lost %d: oracle: %v", lost, err)
		}
		for i := range raw {
			if !bytes.Equal(got[i], want[i]) || !bytes.Equal(got[i], raw[i]) {
				t.Fatalf("lost %d: raw[%d] differs from the full-inverse decode", lost, i)
			}
		}
	}
}
