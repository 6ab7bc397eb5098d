package gf256

import (
	"bytes"
	"testing"
)

// withImpl runs fn once per implementation in impls: the log/exp
// reference, the table kernel and, on AVX2 hosts, the avx2 kernel.
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

// misaligned returns n bytes of testPattern(n+off, seed) starting at
// byte off, so a kernel sees a base address that is not block-aligned.
func misaligned(n, off, seed int) []byte {
	return testPattern(n+off, seed)[off:]
}

// kernelLengths covers the 8-byte SWAR tail, the 16-byte table loop and
// the avx2 block/tail seam at 32.
var kernelLengths = []int{0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 255, 256, 257, 1024}

// TestKernelsAgainstScalar checks every implementation's primitives
// against scalar Mul for a range of lengths and coefficients, including
// the degenerate 0 and 1, on aligned and unaligned sub-slices.
func TestKernelsAgainstScalar(t *testing.T) {
	coeffs := []byte{0, 1, 2, 3, 29, 113, 142, 200, 254, 255}
	withImpl(t, func(t *testing.T, k sliceImpl) {
		for _, off := range []int{0, 1, 5} {
			for _, n := range kernelLengths {
				src := misaligned(n, off, 1)
				for _, c := range coeffs {
					// MulSlice.
					dst := misaligned(n, off+2, 2)
					k.mulSlice(c, dst, src)
					for i := range src {
						if want := Mul(c, src[i]); dst[i] != want {
							t.Fatalf("%s MulSlice(c=%d, n=%d, off=%d)[%d] = %d, want %d",
								k.name, c, n, off, i, dst[i], want)
						}
					}
					// MulAddSlice.
					dst = misaligned(n, off+2, 2)
					orig := append([]byte(nil), dst...)
					k.mulAdd(c, dst, src)
					for i := range src {
						if want := orig[i] ^ Mul(c, src[i]); dst[i] != want {
							t.Fatalf("%s MulAddSlice(c=%d, n=%d, off=%d)[%d] = %d, want %d",
								k.name, c, n, off, i, dst[i], want)
						}
					}
				}
			}
		}
	})
}

// TestMulAddRowsAgainstScalar exercises the fused row primitive (and the
// reference's pairwise form) across row counts that hit the 4/2/1
// unrolling tails (and, at 300, the beyond-the-field fallback), rows
// with zero and one coefficients interleaved, lengths either side of
// the 32-byte block seam, and sources at differing misalignments.
func TestMulAddRowsAgainstScalar(t *testing.T) {
	lengths := []int{0, 1, 8, 17, 31, 32, 33, 63, 65, 256, 257, 1024}
	withImpl(t, func(t *testing.T, k sliceImpl) {
		for _, off := range []int{0, 3} {
			for _, n := range lengths {
				for _, rows := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 300} {
					srcs := make([][]byte, rows)
					coeffs := make([]byte, rows)
					for j := range srcs {
						srcs[j] = misaligned(n, off*(j%4), j+1)
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
					dst := misaligned(n, off, 0)
					want := append([]byte(nil), dst...)
					for j := range srcs {
						for i := range want {
							want[i] ^= Mul(coeffs[j], srcs[j][i])
						}
					}
					k.mulAddRows(coeffs, dst, srcs)
					if !bytes.Equal(dst, want) {
						t.Fatalf("%s MulAddRows(rows=%d, n=%d, off=%d) mismatch", k.name, rows, n, off)
					}
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
