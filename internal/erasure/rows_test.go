package erasure

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestForEachRowCoversAllRows keeps its name from the row-worker pool it
// once checked. The coverage worth having on the serial path is of the
// code itself: every parity row, alone, repairs every clear row.
func TestForEachRowCoversAllRows(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, sh := range []struct{ m, n int }{{1, 3}, {4, 6}, {40, 60}} {
		c, err := NewCoder(sh.m, sh.n)
		if err != nil {
			t.Fatal(err)
		}
		raw := randomPackets(rng, sh.m, 32)
		cooked, err := c.Encode(raw)
		if err != nil {
			t.Fatal(err)
		}
		for lost := 0; lost < sh.m; lost++ {
			for p := sh.m; p < sh.n; p++ {
				rec := make([]Received, 0, sh.m)
				for i := 0; i < sh.m; i++ {
					if i != lost {
						rec = append(rec, Received{Index: i, Data: cooked[i]})
					}
				}
				rec = append(rec, Received{Index: p, Data: cooked[p]})
				dec, err := c.Decode(rec)
				if err != nil {
					t.Fatalf("(%d,%d) parity %d for clear %d: %v", sh.m, sh.n, p, lost, err)
				}
				for i := range raw {
					if !bytes.Equal(dec[i], raw[i]) {
						t.Fatalf("(%d,%d) parity %d for clear %d: raw[%d] mismatch", sh.m, sh.n, p, lost, i)
					}
				}
			}
		}
	}
}

// TestParallelEncodeMatchesSerial keeps its name from the worker pool;
// the parallelism left is the server's — connections cooking rows of one
// shared Coder side by side. Rows cooked concurrently, one
// EncodeParityRow per call, must equal Encode's serial rows, and the
// worst loss the code tolerates (as many clear rows gone as there is
// parity) must decode back to raw. Shapes: the degenerate code, a small
// one, the paper's Table 2 geometry and the two largest the transport can
// ask for; packet sizes: one byte, either side of the kernel's 16-byte
// stride at the paper's sp, and a large packet.
func TestParallelEncodeMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, sh := range []struct{ m, n int }{{1, 1}, {4, 6}, {40, 60}, {128, 192}, {170, 255}} {
		c, err := Shared(sh.m, sh.n)
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range []int{1, 255, 256, 4096} {
			t.Run(fmt.Sprintf("%dof%d/sp%d", sh.m, sh.n, size), func(t *testing.T) {
				checkRowsAndWorstCase(t, c, randomPackets(rng, sh.m, size))
			})
		}
	}
}

func checkRowsAndWorstCase(t *testing.T, c *Coder, raw [][]byte) {
	cooked, err := c.Encode(raw)
	if err != nil {
		t.Fatal(err)
	}
	m, parityRows := c.M(), c.N()-c.M()
	rows := make([][]byte, parityRows)
	errs := make([]error, parityRows)
	const goroutines = 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for row := g; row < parityRows; row += goroutines {
				rows[row], errs[row] = c.EncodeParityRow(raw, row)
			}
		}()
	}
	wg.Wait()
	for row := range rows {
		if errs[row] != nil {
			t.Fatalf("row %d: %v", row, errs[row])
		}
		if !bytes.Equal(rows[row], cooked[m+row]) {
			t.Fatalf("concurrently cooked row %d differs from Encode", row)
		}
	}

	lost := min(m, parityRows)
	rec := make([]Received, 0, m)
	for i := lost; i < m+lost; i++ {
		rec = append(rec, Received{Index: i, Data: cooked[i]})
	}
	dec, err := c.Decode(rec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range raw {
		if !bytes.Equal(dec[i], raw[i]) {
			t.Fatalf("worst-case decode: raw[%d] mismatch", i)
		}
	}
}

// TestSharedCodersConcurrent drives Encode and Decode concurrently
// through erasure.Shared coders under -race: multiple goroutines share
// one memoized Coder.
func TestSharedCodersConcurrent(t *testing.T) {
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for iter := 0; iter < 20; iter++ {
				c, err := Shared(16, 24)
				if err != nil {
					errs <- err
					return
				}
				raw := randomPackets(rng, 16, 256)
				cooked, err := c.Encode(raw)
				if err != nil {
					errs <- err
					return
				}
				// Rotate through survivor sets: all-clear, mixed and
				// parity-heavy solves run side by side.
				rec := make([]Received, 0, 16)
				start := iter % 9
				for i := start; i < start+16; i++ {
					rec = append(rec, Received{Index: i, Data: cooked[i]})
				}
				dec, err := c.Decode(rec)
				if err != nil {
					errs <- err
					return
				}
				for i := range raw {
					if !bytes.Equal(dec[i], raw[i]) {
						errs <- fmt.Errorf("goroutine %d iter %d: raw[%d] mismatch", g, iter, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestInvCacheHitsAndEviction keeps its name from the per-coder inverse
// cache it once checked; with Decode solving only the missing rows there
// is nothing to cache, and what remains worth pinning is that the same
// loss pattern decodes to the same bytes every time, whatever order the
// packets are presented in and whatever was decoded in between.
func TestInvCacheHitsAndEviction(t *testing.T) {
	c, err := NewCoder(4, 12)
	if err != nil {
		t.Fatal(err)
	}
	raw := randomPackets(rand.New(rand.NewSource(12)), 4, 64)
	cooked, err := c.Encode(raw)
	if err != nil {
		t.Fatal(err)
	}
	decodeRows := func(rows []int) [][]byte {
		t.Helper()
		rec := make([]Received, 0, len(rows))
		for _, r := range rows {
			rec = append(rec, Received{Index: r, Data: cooked[r]})
		}
		dec, err := c.Decode(rec)
		if err != nil {
			t.Fatal(err)
		}
		for i := range raw {
			if !bytes.Equal(dec[i], raw[i]) {
				t.Fatalf("rows %v: raw[%d] mismatch", rows, i)
			}
		}
		return dec
	}

	first := decodeRows([]int{4, 5, 6, 7})
	for shift := 0; shift < 12; shift++ {
		decodeRows([]int{4 + shift%8, 5 + shift%7, 2, 3})
	}
	decodeRows([]int{0, 1, 2, 3})
	again := decodeRows([]int{7, 6, 5, 4})
	for i := range first {
		if !bytes.Equal(first[i], again[i]) {
			t.Fatalf("raw[%d] differs between two decodes of the same loss pattern", i)
		}
	}
}

// TestDecodeArenaViewsIndependent guards the arena slicing: appending to
// one returned packet must not clobber its neighbor.
func TestDecodeArenaViewsIndependent(t *testing.T) {
	c, err := NewCoder(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	raw := randomPackets(rand.New(rand.NewSource(13)), 2, 8)
	cooked, err := c.Encode(raw)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range [][]Received{
		{{Index: 0, Data: cooked[0]}, {Index: 1, Data: cooked[1]}}, // all-clear path
		{{Index: 2, Data: cooked[2]}, {Index: 3, Data: cooked[3]}}, // inversion path
	} {
		dec, err := c.Decode(rec)
		if err != nil {
			t.Fatal(err)
		}
		_ = append(dec[0], 0xAA, 0xBB)
		if !bytes.Equal(dec[1], raw[1]) {
			t.Fatal("append to packet 0 clobbered packet 1: arena views must be capacity-capped")
		}
	}
}

// TestDecodeDoesNotAliasInput ensures returned packets are copies even on
// the all-clear fast path, so callers may mutate them freely.
func TestDecodeDoesNotAliasInput(t *testing.T) {
	c, err := NewCoder(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	raw := randomPackets(rand.New(rand.NewSource(14)), 2, 8)
	cooked, err := c.Encode(raw)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := c.Decode([]Received{{Index: 0, Data: cooked[0]}, {Index: 1, Data: cooked[1]}})
	if err != nil {
		t.Fatal(err)
	}
	dec[0][0] ^= 0xFF
	if cooked[0][0] == dec[0][0] {
		t.Fatal("decoded packet aliases the received data")
	}
}

// TestSolveIntoWritesOnlyMissingRows: a decoder handed a slot buffer
// solves each missing symbol into its own row of it and writes no other
// row, and a source added after completion but before the solve is held
// as it arrived: the solve picks its rows again for the smaller system
// and leaves that symbol's slot untouched.
func TestSolveIntoWritesOnlyMissingRows(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const m, n, size = 6, 10, 32
	c, err := NewCoder(m, n)
	if err != nil {
		t.Fatal(err)
	}
	raw := randomPackets(rng, m, size)
	cooked, err := c.Encode(raw)
	if err != nil {
		t.Fatal(err)
	}
	for _, late := range []bool{false, true} {
		slots := make([]byte, m*size)
		d := c.NewDecoder(size)
		d.SolveInto(slots)
		// Sources 0 and 3 are lost; four repairs complete the generation.
		for _, i := range []int{1, 2, 4, 5, 6, 7, 8, 9} {
			if _, err := d.Add(i, cooked[i]); err != nil {
				t.Fatal(err)
			}
		}
		if !d.Complete() || d.Decoded() {
			t.Fatalf("late=%v: complete %v, decoded %v after the repairs", late, d.Complete(), d.Decoded())
		}
		if late {
			if _, err := d.Add(3, cooked[3]); err != nil {
				t.Fatal(err)
			}
		}
		got, err := d.Raw()
		if err != nil {
			t.Fatal(err)
		}
		for i := range raw {
			if !bytes.Equal(got[i], raw[i]) {
				t.Fatalf("late=%v: symbol %d mismatch", late, i)
			}
			row := slots[i*size : (i+1)*size]
			if solved := i == 0 || (i == 3 && !late); solved != bytes.Equal(row, raw[i]) || !solved && !bytes.Equal(row, make([]byte, size)) {
				t.Fatalf("late=%v: slot %d reads %x, solved %v", late, i, row, solved)
			}
		}
		if late && &got[3][0] != &cooked[3][0] {
			t.Error("the late source is not held as it arrived")
		}
	}
}
