package gf256

import (
	"bytes"
	"testing"
)

// withImpl runs fn once per implementation: the log/exp reference and
// the shipped table kernel behind the public wrappers.
func withImpl(t *testing.T, fn func(t *testing.T, k sliceImpl)) {
	t.Helper()
	for _, k := range impls {
		t.Run(k.name, func(t *testing.T) { fn(t, k) })
	}
}

// testPattern fills a deterministic but irregular byte pattern covering
// zero bytes, high bytes and every residue class.
func testPattern(n, seed int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*(2*seed+3) + seed*7)
	}
	return b
}

// TestDefaultKernelIsTable pins the name planner.Stats and the benchmark
// header print: there is one kernel and no knob.
func TestDefaultKernelIsTable(t *testing.T) {
	if got := KernelName(); got != "table" {
		t.Fatalf("default kernel %q, want table", got)
	}
}

// TestKernelsAgainstScalar checks both implementations' primitives against
// scalar Mul for a range of lengths (covering the 8-byte SWAR tail) and
// coefficients, including the degenerate 0 and 1.
func TestKernelsAgainstScalar(t *testing.T) {
	lengths := []int{0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 255, 256, 1024}
	coeffs := []byte{0, 1, 2, 3, 29, 113, 142, 200, 254, 255}
	withImpl(t, func(t *testing.T, k sliceImpl) {
		for _, n := range lengths {
			src := testPattern(n, 1)
			for _, c := range coeffs {
				// MulSlice.
				dst := testPattern(n, 2)
				k.mulSlice(c, dst, src)
				for i := range src {
					if want := Mul(c, src[i]); dst[i] != want {
						t.Fatalf("%s MulSlice(c=%d, n=%d)[%d] = %d, want %d",
							k.name, c, n, i, dst[i], want)
					}
				}
				// MulAddSlice.
				dst = testPattern(n, 2)
				orig := append([]byte(nil), dst...)
				k.mulAdd(c, dst, src)
				for i := range src {
					if want := orig[i] ^ Mul(c, src[i]); dst[i] != want {
						t.Fatalf("%s MulAddSlice(c=%d, n=%d)[%d] = %d, want %d",
							k.name, c, n, i, dst[i], want)
					}
				}
			}
		}
	})
}

// TestMulAddRowsAgainstScalar exercises the fused row primitive (and the
// reference's pairwise form) across row counts that hit the 4/2/1
// unrolling tails (and, at 300, the table kernel's beyond-the-field
// fallback) and rows with zero and one coefficients interleaved.
func TestMulAddRowsAgainstScalar(t *testing.T) {
	lengths := []int{0, 1, 8, 17, 256, 1024}
	withImpl(t, func(t *testing.T, k sliceImpl) {
		for _, n := range lengths {
			for _, rows := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 300} {
				srcs := make([][]byte, rows)
				coeffs := make([]byte, rows)
				for j := range srcs {
					srcs[j] = testPattern(n, j+1)
					// Interleave zero, one and general coefficients.
					switch j % 3 {
					case 0:
						coeffs[j] = 0
					case 1:
						coeffs[j] = 1
					default:
						coeffs[j] = byte(37*j + 5)
					}
				}
				dst := testPattern(n, 0)
				want := append([]byte(nil), dst...)
				for j := range srcs {
					for i := range want {
						want[i] ^= Mul(coeffs[j], srcs[j][i])
					}
				}
				k.mulAddRows(coeffs, dst, srcs)
				if !bytes.Equal(dst, want) {
					t.Fatalf("%s MulAddRows(rows=%d, n=%d) mismatch", k.name, rows, n)
				}
			}
		}
	})
}

func TestMulAddRowsPanics(t *testing.T) {
	assertPanics := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	assertPanics("coeff count mismatch", func() {
		MulAddRows([]byte{1, 2}, make([]byte, 8), [][]byte{make([]byte, 8)})
	})
	assertPanics("source length mismatch", func() {
		MulAddRows([]byte{1}, make([]byte, 8), [][]byte{make([]byte, 7)})
	})
}

func TestXorSlice(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 17, 64, 100} {
		dst := testPattern(n, 3)
		src := testPattern(n, 5)
		want := make([]byte, n)
		for i := range want {
			want[i] = dst[i] ^ src[i]
		}
		xorSlice(dst, src)
		if !bytes.Equal(dst, want) {
			t.Fatalf("xorSlice(n=%d) mismatch", n)
		}
	}
}

// TestMulTablesConsistent pins the product table to scalar Mul.
func TestMulTablesConsistent(t *testing.T) {
	for c := 0; c < 256; c++ {
		for x := 0; x < 256; x++ {
			want := Mul(byte(c), byte(x))
			if got := _mul.full[c][x]; got != want {
				t.Fatalf("full[%d][%d] = %d, want %d", c, x, got, want)
			}
		}
	}
}
