package gf256

// The slice kernels below are the only GF(2^8) code on the transmission
// hot path: every byte of every cooked packet flows through MulAddSlice
// (encode) or MulAddRows (encode and decode), so their cost decides how
// fast the erasure codec can feed a channel. There are two
// implementations, chosen by the CPU (see KernelName). On amd64 with AVX2
// it is "avx2", the split-nibble VPSHUFB loop of kernel_amd64.s, for
// every whole 32-byte block. Everywhere else, and for the sub-32-byte
// tail, it is "table" below: a flat 64 KiB product table mulTable[c][x].
// For a fixed coefficient the table loop touches one 256-byte row with a
// single independent branch-free lookup per byte, gathering eight
// products at a time into 64-bit destination words; its fused MulAddRows
// form folds up to four source rows into one destination pass, amortizing
// the dst read-modify-write that dominates repeated two-operand calls.
//
// The log/exp-table loop the table kernel replaced (a branch plus two
// dependent lookups per byte, 2.3–2.6× slower) lives on in
// reference_test.go as the byte-for-byte oracle FuzzKernels compares
// both shipped kernels with.

import "encoding/binary"

// mulTables holds the table kernel's product table, produced by one
// deterministic computation like the log/exp tables.
type mulTables struct {
	full [256][256]byte // full[c][x] = c*x (64 KiB)
}

var _mul = genMulTables()

func genMulTables() *mulTables {
	t := &mulTables{}
	for c := 0; c < 256; c++ {
		for x := 0; x < 256; x++ {
			t.full[c][x] = Mul(byte(c), byte(x))
		}
	}
	return t
}

// The table loops below gather the products of 8 source bytes into one
// 64-bit word: eight independent 256-byte-row lookups (bounds-check
// free — the indices are bytes) packed with shifts, then a single
// word-wide destination update. That halves the per-byte memory traffic
// of the naive dst[i] ^= row[src[i]] loop, which spends a load and a
// store on dst for every byte — on scalar hardware these kernels are
// bound by memory ports, not by the table arithmetic. The gather bodies
// are written out inline in each loop: as functions they blow the
// inliner budget, and a call (plus slice-header setup) per 8 bytes
// costs more than the gather saves.

// tableMulAdd works 16 bytes per iteration as two independent 8-byte
// gathers whose accumulation chains overlap in the pipeline.
func tableMulAdd(c byte, dst, src []byte) {
	row := &_mul.full[c]
	n := len(src) &^ 15
	i := 0
	for ; i < n; i += 16 {
		s := src[i : i+16 : i+16]
		a := uint64(row[s[0]]) | uint64(row[s[1]])<<8 | uint64(row[s[2]])<<16 | uint64(row[s[3]])<<24 |
			uint64(row[s[4]])<<32 | uint64(row[s[5]])<<40 | uint64(row[s[6]])<<48 | uint64(row[s[7]])<<56
		b := uint64(row[s[8]]) | uint64(row[s[9]])<<8 | uint64(row[s[10]])<<16 | uint64(row[s[11]])<<24 |
			uint64(row[s[12]])<<32 | uint64(row[s[13]])<<40 | uint64(row[s[14]])<<48 | uint64(row[s[15]])<<56
		d1 := binary.LittleEndian.Uint64(dst[i:])
		d2 := binary.LittleEndian.Uint64(dst[i+8:])
		binary.LittleEndian.PutUint64(dst[i:], d1^a)
		binary.LittleEndian.PutUint64(dst[i+8:], d2^b)
	}
	for ; i < len(src); i++ {
		dst[i] ^= row[src[i]]
	}
}

func tableMulSlice(c byte, dst, src []byte) {
	row := &_mul.full[c]
	n := len(src) &^ 15
	i := 0
	for ; i < n; i += 16 {
		s := src[i : i+16 : i+16]
		a := uint64(row[s[0]]) | uint64(row[s[1]])<<8 | uint64(row[s[2]])<<16 | uint64(row[s[3]])<<24 |
			uint64(row[s[4]])<<32 | uint64(row[s[5]])<<40 | uint64(row[s[6]])<<48 | uint64(row[s[7]])<<56
		b := uint64(row[s[8]]) | uint64(row[s[9]])<<8 | uint64(row[s[10]])<<16 | uint64(row[s[11]])<<24 |
			uint64(row[s[12]])<<32 | uint64(row[s[13]])<<40 | uint64(row[s[14]])<<48 | uint64(row[s[15]])<<56
		binary.LittleEndian.PutUint64(dst[i:], a)
		binary.LittleEndian.PutUint64(dst[i+8:], b)
	}
	for ; i < len(src); i++ {
		dst[i] = row[src[i]]
	}
}

// tableMulAddRows folds source rows four (then two, then one) at a time
// into a single destination pass of 64-bit gathered words. Fusing
// matters because the two-operand loop is dominated by the dst
// read-modify-write: four fused sources cost one dst pass instead of
// four. Zero coefficients are compacted away first; c == 1 needs no
// special case (row 1 of the product table is the identity).
func tableMulAddRows(coeffs []byte, dst []byte, srcs [][]byte) {
	if len(coeffs) > 256 {
		// A GF(2^8) code has at most 255 rows, so this cannot happen for
		// field-valid systems; stay correct for callers that try anyway.
		for j, c := range coeffs {
			if c != 0 {
				tableMulAdd(c, dst, srcs[j])
			}
		}
		return
	}
	// Compact the non-zero terms into fixed-size stack arrays: this runs
	// per parity row, per frame, and the send path's AllocsPerRun gates
	// budget zero for kernel work (TestKernelsAllocationFree).
	live := 0
	var rows [256]*[256]byte
	var data [256][]byte
	var cc [256]byte
	for j, c := range coeffs {
		if c == 0 {
			continue
		}
		rows[live] = &_mul.full[c]
		data[live] = srcs[j][:len(dst)]
		cc[live] = c
		live++
	}
	j := 0
	for ; j+4 <= live; j += 4 {
		r1, r2, r3, r4 := rows[j], rows[j+1], rows[j+2], rows[j+3]
		s1, s2, s3, s4 := data[j], data[j+1], data[j+2], data[j+3]
		n := len(dst) &^ 7
		i := 0
		for ; i < n; i += 8 {
			a := s1[i : i+8 : i+8]
			b := s2[i : i+8 : i+8]
			c := s3[i : i+8 : i+8]
			e := s4[i : i+8 : i+8]
			v := uint64(r1[a[0]]^r2[b[0]]^r3[c[0]]^r4[e[0]]) |
				uint64(r1[a[1]]^r2[b[1]]^r3[c[1]]^r4[e[1]])<<8 |
				uint64(r1[a[2]]^r2[b[2]]^r3[c[2]]^r4[e[2]])<<16 |
				uint64(r1[a[3]]^r2[b[3]]^r3[c[3]]^r4[e[3]])<<24 |
				uint64(r1[a[4]]^r2[b[4]]^r3[c[4]]^r4[e[4]])<<32 |
				uint64(r1[a[5]]^r2[b[5]]^r3[c[5]]^r4[e[5]])<<40 |
				uint64(r1[a[6]]^r2[b[6]]^r3[c[6]]^r4[e[6]])<<48 |
				uint64(r1[a[7]]^r2[b[7]]^r3[c[7]]^r4[e[7]])<<56
			d := binary.LittleEndian.Uint64(dst[i:])
			binary.LittleEndian.PutUint64(dst[i:], d^v)
		}
		for ; i < len(dst); i++ {
			dst[i] ^= r1[s1[i]] ^ r2[s2[i]] ^ r3[s3[i]] ^ r4[s4[i]]
		}
	}
	if j+2 <= live {
		r1, r2 := rows[j], rows[j+1]
		s1, s2 := data[j], data[j+1]
		n := len(dst) &^ 7
		i := 0
		for ; i < n; i += 8 {
			a := s1[i : i+8 : i+8]
			b := s2[i : i+8 : i+8]
			v := uint64(r1[a[0]]^r2[b[0]]) | uint64(r1[a[1]]^r2[b[1]])<<8 |
				uint64(r1[a[2]]^r2[b[2]])<<16 | uint64(r1[a[3]]^r2[b[3]])<<24 |
				uint64(r1[a[4]]^r2[b[4]])<<32 | uint64(r1[a[5]]^r2[b[5]])<<40 |
				uint64(r1[a[6]]^r2[b[6]])<<48 | uint64(r1[a[7]]^r2[b[7]])<<56
			d := binary.LittleEndian.Uint64(dst[i:])
			binary.LittleEndian.PutUint64(dst[i:], d^v)
		}
		for ; i < len(dst); i++ {
			dst[i] ^= r1[s1[i]] ^ r2[s2[i]]
		}
		j += 2
	}
	if j < live {
		tableMulAdd(cc[j], dst, data[j])
	}
}

// ---- shared word-wise XOR ----

// xorSlice computes dst[i] ^= src[i] eight bytes at a time. It is the
// c == 1 path of MulAddSlice and the body of AddSlice; XOR is field
// addition, so there is no table work at all.
func xorSlice(dst, src []byte) {
	n := len(src) &^ 7
	i := 0
	for ; i < n; i += 8 {
		d := binary.LittleEndian.Uint64(dst[i:])
		s := binary.LittleEndian.Uint64(src[i:])
		binary.LittleEndian.PutUint64(dst[i:], d^s)
	}
	for ; i < len(src); i++ {
		dst[i] ^= src[i]
	}
}
