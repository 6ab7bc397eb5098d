package gf256

// The log/exp-table slice loops the table kernel replaced: a branch plus
// two dependent table lookups per byte. They no longer ship — nothing
// selected them outside a benchmark driver — but stay here as the
// independent byte-for-byte oracle: FuzzKernels, the …AgainstScalar
// tests and the kernel benchmarks run every implementation in impls.
// Both shipped kernels are in it on an AVX2 host: table called directly,
// avx2 through the public wrappers.

// sliceImpl is one implementation of the three slice primitives under
// the public contract (any c, equal-length non-aliasing slices).
type sliceImpl struct {
	name       string
	mulSlice   func(c byte, dst, src []byte)
	mulAdd     func(c byte, dst, src []byte)
	mulAddRows func(coeffs []byte, dst []byte, srcs [][]byte)
}

// impls lists the reference first, then the pure-Go table kernel, then
// (on hosts that have it) avx2. The avx2 entry's MulSlice is the table
// loop; only the accumulating forms have an AVX2 path.
var impls = kernelImpls()

func kernelImpls() []sliceImpl {
	out := []sliceImpl{
		{"logexp", logExpMulSlice, logExpMulAdd, pairwiseRows},
		{"table", tableMulSlice, tableMulAdd, tableMulAddRows},
	}
	if KernelName() == "avx2" {
		out = append(out, sliceImpl{"avx2", MulSlice, MulAddSlice, MulAddRows})
	}
	return out
}

func logExpMulAdd(c byte, dst, src []byte) {
	if c == 0 {
		return
	}
	logC := int(_tables.log[c])
	for i, s := range src {
		if s != 0 {
			dst[i] ^= _tables.exp[logC+int(_tables.log[s])]
		}
	}
}

func logExpMulSlice(c byte, dst, src []byte) {
	logC := int(_tables.log[c])
	for i, s := range src {
		if c == 0 || s == 0 {
			dst[i] = 0
			continue
		}
		dst[i] = _tables.exp[logC+int(_tables.log[s])]
	}
}

// pairwiseRows is the generic row accumulation: one two-operand pass per
// coefficient.
func pairwiseRows(coeffs []byte, dst []byte, srcs [][]byte) {
	for j, c := range coeffs {
		logExpMulAdd(c, dst, srcs[j])
	}
}
