package erasure

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// withWorkers forces the codec onto n workers for the duration of fn.
func withWorkers(t *testing.T, n int, fn func()) {
	t.Helper()
	prev := SetMaxWorkers(n)
	defer SetMaxWorkers(prev)
	fn()
}

func TestForEachRowCoversAllRows(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 7} {
		for _, rows := range []int{0, 1, 2, 5, 16, 33} {
			prev := SetMaxWorkers(workers)
			var mu sync.Mutex
			hit := make([]int, rows)
			forEachRow(rows, rows*4096+defaultParallelCutover, func(i int) {
				mu.Lock()
				hit[i]++
				mu.Unlock()
			})
			SetMaxWorkers(prev)
			for i, h := range hit {
				if h != 1 {
					t.Fatalf("workers=%d rows=%d: row %d visited %d times", workers, rows, i, h)
				}
			}
		}
	}
}

func TestWorkerCount(t *testing.T) {
	// Automatic sizing stays serial below the cutover...
	if got := workerCount(64, 1024); got != 1 {
		t.Errorf("workerCount below cutover = %d, want 1", got)
	}
	// ...and an explicit override forces parallelism regardless of size,
	// capped by the row count.
	withWorkers(t, 4, func() {
		if got := workerCount(64, 1024); got != 4 {
			t.Errorf("forced workerCount = %d, want 4", got)
		}
		if got := workerCount(2, 1024); got != 2 {
			t.Errorf("row-capped workerCount = %d, want 2", got)
		}
	})
}

// TestParallelEncodeMatchesSerial pins the parallel row scheduler to the
// serial result for every primitive across a range of shapes.
func TestParallelEncodeMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, shape := range []struct{ m, n int }{{4, 8}, {16, 24}, {40, 60}} {
		c, err := NewCoder(shape.m, shape.n)
		if err != nil {
			t.Fatal(err)
		}
		raw := randomPackets(rng, shape.m, 512)

		var serialCooked, serialParity [][]byte
		withWorkers(t, 1, func() {
			serialCooked, err = c.Encode(raw)
			if err != nil {
				t.Fatal(err)
			}
			serialParity, err = c.EncodeParity(raw)
			if err != nil {
				t.Fatal(err)
			}
		})
		withWorkers(t, 4, func() {
			cooked, err := c.Encode(raw)
			if err != nil {
				t.Fatal(err)
			}
			for i := range cooked {
				if !bytes.Equal(cooked[i], serialCooked[i]) {
					t.Fatalf("(%d,%d) parallel Encode packet %d differs", shape.m, shape.n, i)
				}
			}
			parity, err := c.EncodeParity(raw)
			if err != nil {
				t.Fatal(err)
			}
			for i := range parity {
				if !bytes.Equal(parity[i], serialParity[i]) {
					t.Fatalf("(%d,%d) parallel EncodeParity packet %d differs", shape.m, shape.n, i)
				}
			}

			// Worst-case decode (no clear text) through the parallel path.
			rec := make([]Received, 0, shape.m)
			for i := shape.n - shape.m; i < shape.n; i++ {
				rec = append(rec, Received{Index: i, Data: cooked[i]})
			}
			dec, err := c.Decode(rec)
			if err != nil {
				t.Fatal(err)
			}
			for i := range raw {
				if !bytes.Equal(dec[i], raw[i]) {
					t.Fatalf("(%d,%d) parallel Decode raw[%d] mismatch", shape.m, shape.n, i)
				}
			}
		})
	}
}

// TestSharedCodersConcurrent drives the parallel encoder concurrently
// through erasure.Shared coders — the -race test the satellite asks for:
// multiple goroutines share one memoized Coder while the row workers of each call run underneath.
func TestSharedCodersConcurrent(t *testing.T) {
	withWorkers(t, 2, func() {
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
	})
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
