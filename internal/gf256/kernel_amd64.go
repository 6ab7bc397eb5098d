package gf256

// On amd64 the slice kernels run the split-nibble VPSHUFB multiply of
// kernel_amd64.s when the CPU has AVX2 and the OS saves YMM state; the
// table kernel covers the sub-32-byte tail and every other CPU. The
// platform decides once, at init: there is no knob.

// hasAVX2 is the CPUID + XGETBV verdict, taken once.
var hasAVX2 = detectAVX2()

func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 { // XMM and YMM state enabled
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// _nib is the AVX2 kernel's per-coefficient nibble table (8 KiB):
// nib[c][x] = c*x and nib[c][16+x] = c*(x<<4) for x < 16, so c*b is
// nib[c][b&15] ^ nib[c][16+b>>4].
var _nib = genNibTables()

func genNibTables() *[256][32]byte {
	t := new([256][32]byte)
	for c := 0; c < 256; c++ {
		for x := 0; x < 16; x++ {
			t[c][x] = Mul(byte(c), byte(x))
			t[c][16+x] = Mul(byte(c), byte(x<<4))
		}
	}
	return t
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

//go:noescape
func mulAddRowsAVX2(tab *[256][32]byte, coeffs []byte, srcs [][]byte, dst []byte)

// KernelName names the slice kernel this CPU runs, for stats lines and
// benchmark headers: "avx2" or "table".
func KernelName() string {
	if hasAVX2 {
		return "avx2"
	}
	return "table"
}

// mulAdd is MulAddSlice's kernel for c >= 2.
func mulAdd(c byte, dst, src []byte) {
	if n := len(dst) &^ 31; hasAVX2 && n > 0 {
		cc := [1]byte{c}
		data := [1][]byte{src}
		mulAddRowsAVX2(_nib, cc[:], data[:], dst[:n])
		dst, src = dst[n:], src[n:]
	}
	tableMulAdd(c, dst, src)
}

// mulAddRows is MulAddRows' kernel. The non-zero terms are compacted
// into stack arrays for the assembly loop, which covers the 32-byte
// blocks; the table kernel finishes the tail.
func mulAddRows(coeffs []byte, dst []byte, srcs [][]byte) {
	n := len(dst) &^ 31
	if !hasAVX2 || n == 0 || len(coeffs) > 256 {
		tableMulAddRows(coeffs, dst, srcs)
		return
	}
	live := 0
	var cc [256]byte
	var data [256][]byte
	for j, c := range coeffs {
		if c != 0 {
			cc[live], data[live] = c, srcs[j]
			live++
		}
	}
	if live == 0 {
		return
	}
	mulAddRowsAVX2(_nib, cc[:live], data[:live], dst[:n])
	if n < len(dst) {
		for j := 0; j < live; j++ {
			tableMulAdd(cc[j], dst[n:], data[j][n:])
		}
	}
}
