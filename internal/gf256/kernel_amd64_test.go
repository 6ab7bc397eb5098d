package gf256

import "testing"

// TestKernelName pins the name planner.Stats and the benchmark header
// print to the CPUID + XGETBV check: avx2 exactly when it passes, and no
// knob to say otherwise.
func TestKernelName(t *testing.T) {
	want := "table"
	if detectAVX2() {
		want = "avx2"
	}
	if got := KernelName(); got != want {
		t.Fatalf("KernelName() = %q, want %q for this CPU", got, want)
	}
}

// TestNibTablesConsistent pins the avx2 kernel's nibble table to scalar
// Mul: the low half holds c times each low nibble, the high half c times
// each high nibble.
func TestNibTablesConsistent(t *testing.T) {
	for c := 0; c < 256; c++ {
		for x := 0; x < 16; x++ {
			if got, want := _nib[c][x], Mul(byte(c), byte(x)); got != want {
				t.Fatalf("nib[%d][%d] = %d, want %d", c, x, got, want)
			}
			if got, want := _nib[c][16+x], Mul(byte(c), byte(x<<4)); got != want {
				t.Fatalf("nib[%d][16+%d] = %d, want %d", c, x, got, want)
			}
		}
	}
}
