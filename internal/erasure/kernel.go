package erasure

import "mobweb/internal/gf256"

// accumulateRow computes dst[i] ^= Σ_j row[j]*srcs[j][i] — one dispersal
// (or inverse) matrix row applied to its source packets. It rides the
// fused gather kernel in gf256, which folds several sources into each
// destination pass (see gf256/kernel.go).
func accumulateRow(dst, row []byte, srcs [][]byte) {
	gf256.MulAddRows(row, dst, srcs)
}
