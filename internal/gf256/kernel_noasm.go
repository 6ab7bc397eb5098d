//go:build !amd64

package gf256

// Without the amd64 assembly the table kernel is the only path.

// KernelName names the slice kernel this CPU runs, for stats lines and
// benchmark headers.
func KernelName() string { return "table" }

func mulAdd(c byte, dst, src []byte) { tableMulAdd(c, dst, src) }

func mulAddRows(coeffs []byte, dst []byte, srcs [][]byte) { tableMulAddRows(coeffs, dst, srcs) }
