package gf256

import (
	"fmt"
	"testing"
)

// benchImpls runs fn once per implementation (the log/exp reference and
// the shipped kernels) as a sub-benchmark. SetBytes is left to fn.
func benchImpls(b *testing.B, fn func(b *testing.B, k sliceImpl)) {
	for _, k := range impls {
		b.Run(k.name, func(b *testing.B) { fn(b, k) })
	}
}

// BenchmarkKernelMulAddSlice is the two-operand axpy that the acceptance
// criterion measures: MulAddSlice on 4 KiB payloads, per implementation.
func BenchmarkKernelMulAddSlice(b *testing.B) {
	for _, size := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			src := testPattern(size, 1)
			dst := testPattern(size, 2)
			benchImpls(b, func(b *testing.B, k sliceImpl) {
				b.SetBytes(int64(size))
				for i := 0; i < b.N; i++ {
					k.mulAdd(byte(i)|2, dst, src)
				}
			})
		})
	}
}

// BenchmarkKernelMulAddRows is the fused row primitive the codec actually
// runs: four source rows folded into one destination pass, and the weak
// workloads' generation shape, 128 sources of 256 bytes.
func BenchmarkKernelMulAddRows(b *testing.B) {
	for _, shape := range []struct{ rows, size int }{{4, 1024}, {4, 4096}, {128, 256}} {
		b.Run(fmt.Sprintf("rows=%d/size=%d", shape.rows, shape.size), func(b *testing.B) {
			dst := testPattern(shape.size, 0)
			srcs := make([][]byte, shape.rows)
			coeffs := make([]byte, shape.rows)
			for j := range srcs {
				srcs[j] = testPattern(shape.size, j+1)
				coeffs[j] = byte(0x53 + 2*j)
			}
			benchImpls(b, func(b *testing.B, k sliceImpl) {
				b.SetBytes(int64(shape.size * shape.rows))
				for i := 0; i < b.N; i++ {
					k.mulAddRows(coeffs, dst, srcs)
				}
			})
		})
	}
}

func BenchmarkAddSlice(b *testing.B) {
	const size = 4096
	src := testPattern(size, 1)
	dst := testPattern(size, 2)
	b.SetBytes(size)
	for i := 0; i < b.N; i++ {
		AddSlice(dst, src)
	}
}
