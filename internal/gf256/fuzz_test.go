package gf256

import "testing"

// FuzzKernels is the equivalence fuzzer: for arbitrary coefficients and
// payloads, every implementation in impls — the log/exp reference
// (reference_test.go), the table kernel called directly and, on AVX2
// hosts, the avx2 kernel through the public wrappers (which own the
// degenerate c == 0 / c == 1 cases, the contract the erasure codec relies
// on) — must agree byte-for-byte with the scalar Mul oracle on MulSlice,
// MulAddSlice and MulAddRows. The payload is split in two so the rows
// form exercises multiple source slices with distinct contents.
func FuzzKernels(f *testing.F) {
	f.Add(byte(0), byte(0), []byte{})
	f.Add(byte(1), byte(2), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(byte(29), byte(255), []byte("weakly-connected browsing!"))
	f.Add(byte(142), byte(113), make([]byte, 65))
	f.Fuzz(func(t *testing.T, c1, c2 byte, payload []byte) {
		half := len(payload) / 2
		a, b := payload[:half], payload[half:half*2]

		// Scalar oracles.
		wantMul := make([]byte, half)
		wantAdd := make([]byte, half)
		wantRows := make([]byte, half)
		for i := 0; i < half; i++ {
			wantMul[i] = Mul(c1, a[i])
			wantAdd[i] = b[i] ^ Mul(c1, a[i])
			wantRows[i] = Mul(c1, a[i]) ^ Mul(c2, b[i])
		}

		for _, k := range impls {
			got := make([]byte, half)
			k.mulSlice(c1, got, a)
			for i := range got {
				if got[i] != wantMul[i] {
					t.Fatalf("%s MulSlice(c=%d)[%d] = %d, want %d", k.name, c1, i, got[i], wantMul[i])
				}
			}

			copy(got, b)
			k.mulAdd(c1, got, a)
			for i := range got {
				if got[i] != wantAdd[i] {
					t.Fatalf("%s MulAddSlice(c=%d)[%d] = %d, want %d", k.name, c1, i, got[i], wantAdd[i])
				}
			}

			for i := range got {
				got[i] = 0
			}
			k.mulAddRows([]byte{c1, c2}, got, [][]byte{a, b})
			for i := range got {
				if got[i] != wantRows[i] {
					t.Fatalf("%s MulAddRows(c=[%d %d])[%d] = %d, want %d", k.name, c1, c2, i, got[i], wantRows[i])
				}
			}
		}
	})
}
