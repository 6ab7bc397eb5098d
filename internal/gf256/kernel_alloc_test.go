package gf256

import "testing"

// TestKernelsAllocationFree pins the allocation-free contract of the
// slice kernels: the fused-rows accumulation (and the two-operand forms it is
// built from) must not touch the heap. tableMulAddRows once made three
// slices per call to compact its coefficients — per parity row, per
// frame — which this test would have caught.
func TestKernelsAllocationFree(t *testing.T) {
	const (
		size = 4096
		rows = 7 // exercises the 4-, 2- and 1-row tails of the fused kernel
	)
	dst := make([]byte, size)
	srcs := make([][]byte, rows)
	coeffs := make([]byte, rows)
	for j := range srcs {
		srcs[j] = make([]byte, size)
		for i := range srcs[j] {
			srcs[j][i] = byte(i*(j+3) + j)
		}
		coeffs[j] = byte(7*j + 2)
	}
	coeffs[2] = 0 // compaction path
	coeffs[4] = 1 // identity-coefficient path

	// The public entries run the avx2 kernel on AVX2 hosts (with a
	// table-kernel tail at the odd length); the table entries are called
	// directly so both kernels are checked in one binary.
	const odd = size - 5
	tails := make([][]byte, rows)
	for j := range tails {
		tails[j] = srcs[j][:odd]
	}
	checks := []struct {
		op string
		fn func()
	}{
		{"MulAddRows", func() { MulAddRows(coeffs, dst, srcs) }},
		{"MulAddRows with a tail", func() { MulAddRows(coeffs, dst[:odd], tails) }},
		{"MulAddSlice", func() { MulAddSlice(0x53, dst, srcs[0]) }},
		{"MulAddSlice with a tail", func() { MulAddSlice(0x53, dst[:odd], srcs[0][:odd]) }},
		{"MulSlice", func() { MulSlice(0x1d, dst, srcs[1]) }},
		{"AddSlice", func() { AddSlice(dst, srcs[3]) }},
		{"tableMulAddRows", func() { tableMulAddRows(coeffs, dst, srcs) }},
		{"tableMulAdd", func() { tableMulAdd(0x53, dst, srcs[0]) }},
	}
	for _, c := range checks {
		if allocs := testing.AllocsPerRun(50, c.fn); allocs != 0 {
			t.Errorf("%s allocates %.1f times per call, want 0", c.op, allocs)
		}
	}
}
