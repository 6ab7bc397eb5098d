// Package gf256 implements arithmetic over the finite field GF(2^8).
//
// The field is realized as polynomials over GF(2) modulo the primitive
// polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11D), the same representation
// used by Reed-Solomon codecs. All 255 non-zero elements are powers of
// the generator 0x02, which lets multiplication and division run through
// logarithm/exponential tables.
//
// The package is the arithmetic substrate for the information-dispersal
// erasure code (Rabin 1989) that the fault-tolerant multi-resolution
// transmission scheme relies on: cooked packets are GF(256)-linear
// combinations of raw packets.
package gf256

// Poly is the primitive reduction polynomial for the field,
// x^8 + x^4 + x^3 + x^2 + 1.
const Poly = 0x11D

// Generator is a primitive element of the field; every non-zero field
// element is a power of it.
const Generator = 0x02

// Order is the number of elements in the field.
const Order = 256

// tables bundles the log/exp lookup tables so they can be produced by a
// single deterministic computation instead of init() side effects.
type tables struct {
	exp [2 * 255]byte // exp[i] = Generator^i, doubled to avoid mod 255
	log [256]byte     // log[x] with log[0] unused
}

var _tables = genTables()

// genTables builds the discrete log/exp tables by repeated multiplication
// by the generator with carry-less reduction by Poly.
func genTables() tables {
	var t tables
	x := 1
	for i := 0; i < 255; i++ {
		t.exp[i] = byte(x)
		t.exp[i+255] = byte(x)
		t.log[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= Poly
		}
	}
	return t
}

// Add returns a + b in GF(2^8). Addition is XOR; it is its own inverse,
// so Sub is identical.
func Add(a, b byte) byte { return a ^ b }

// Sub returns a - b in GF(2^8); identical to Add because the field has
// characteristic 2.
func Sub(a, b byte) byte { return a ^ b }

// Mul returns a * b in GF(2^8).
func Mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return _tables.exp[int(_tables.log[a])+int(_tables.log[b])]
}

// Div returns a / b in GF(2^8). Division by zero panics, mirroring the
// behaviour of integer division: it indicates a programming error in the
// caller (the erasure decoder never divides by a zero pivot once a matrix
// has passed its invertibility check).
func Div(a, b byte) byte {
	if b == 0 {
		panic("gf256: division by zero")
	}
	if a == 0 {
		return 0
	}
	diff := int(_tables.log[a]) - int(_tables.log[b])
	if diff < 0 {
		diff += 255
	}
	return _tables.exp[diff]
}

// Inv returns the multiplicative inverse of a. Inv(0) panics.
func Inv(a byte) byte {
	if a == 0 {
		panic("gf256: inverse of zero")
	}
	return _tables.exp[255-int(_tables.log[a])]
}

// Exp returns Generator^k for any non-negative k.
func Exp(k int) byte {
	if k < 0 {
		panic("gf256: negative exponent")
	}
	return _tables.exp[k%255]
}

// Log returns the discrete logarithm of a to base Generator.
// Log(0) panics because zero has no logarithm.
func Log(a byte) int {
	if a == 0 {
		panic("gf256: log of zero")
	}
	return int(_tables.log[a])
}

// Pow returns a^k in GF(2^8) with the convention a^0 == 1 (including 0^0).
func Pow(a byte, k int) byte {
	if k == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	if k < 0 {
		panic("gf256: negative exponent")
	}
	return _tables.exp[(int(_tables.log[a])*k)%255]
}

// MulSlice multiplies every byte of src by c and stores the result in dst.
// dst and src must have equal length; they may alias. The byte work runs
// through the table kernel (see kernel.go).
func MulSlice(c byte, dst, src []byte) {
	if len(dst) != len(src) {
		panic("gf256: MulSlice length mismatch")
	}
	if c == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	if c == 1 {
		copy(dst, src)
		return
	}
	tableMulSlice(c, dst, src)
}

// MulAddSlice computes dst[i] ^= c * src[i] for every index, the classic
// "axpy" kernel of the erasure encoder. dst and src must have equal length
// and must not alias unless they are identical slices with c == 0. The
// byte work runs through the slice kernel (see kernel.go); c == 1
// degenerates to a word-wise XOR with no table work.
func MulAddSlice(c byte, dst, src []byte) {
	if len(dst) != len(src) {
		panic("gf256: MulAddSlice length mismatch")
	}
	if c == 0 {
		return
	}
	if c == 1 {
		xorSlice(dst, src)
		return
	}
	mulAdd(c, dst, src)
}

// MulAddRows computes dst[i] ^= Σ_j coeffs[j]*srcs[j][i] — one dispersal
// row applied to all of its source packets in a single call. Fusing the
// sources lets the kernel amortize the dst read-modify-write (across
// every source for avx2, up to four per pass for table), the dominant
// cost of repeated MulAddSlice calls; it is the encode/decode row
// primitive of the erasure codec.
// Every source must have dst's length, and none may alias dst.
func MulAddRows(coeffs []byte, dst []byte, srcs [][]byte) {
	if len(coeffs) != len(srcs) {
		panic("gf256: MulAddRows coefficient/source count mismatch")
	}
	for _, s := range srcs {
		if len(s) != len(dst) {
			panic("gf256: MulAddRows length mismatch")
		}
	}
	mulAddRows(coeffs, dst, srcs)
}

// AddSlice computes dst[i] ^= src[i] for every index (field addition is
// XOR), eight bytes per iteration.
func AddSlice(dst, src []byte) {
	if len(dst) != len(src) {
		panic("gf256: AddSlice length mismatch")
	}
	xorSlice(dst, src)
}
