// Package crc implements the CRC-16/CCITT-FALSE cyclic redundancy check
// the packet layer uses to detect corruption ("low computational cost and
// high error coverage", §4.1 of the paper).
//
// Parameters: width=16, poly=0x1021, init=0xFFFF, no reflection, no final
// XOR. A 16-bit CRC detects all single-bit errors, all double-bit errors
// within the code length, all odd-weight errors (the polynomial has the
// (x+1) factor absorbed via the init value's behaviour on short frames is
// still covered by the burst guarantee), and every burst of length <= 16.
package crc

// Poly is the CCITT generator polynomial x^16 + x^12 + x^5 + 1.
const Poly = 0x1021

// Init is the initial shift-register value for CCITT-FALSE.
const Init = 0xFFFF

// table is the byte-at-a-time lookup table for Poly.
var _table = genTable()

func genTable() [256]uint16 {
	var t [256]uint16
	for i := 0; i < 256; i++ {
		crc := uint16(i) << 8
		for bit := 0; bit < 8; bit++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ Poly
			} else {
				crc <<= 1
			}
		}
		t[i] = crc
	}
	return t
}

// _slice extends the byte table for slicing-by-8: _slice[k][v] is the CRC
// contribution of byte v followed by k zero bytes, so eight input bytes
// can be folded into the register with eight independent lookups per
// iteration instead of eight dependent ones.
var _slice = genSliceTable()

func genSliceTable() [8][256]uint16 {
	var t [8][256]uint16
	t[0] = _table
	for v := 0; v < 256; v++ {
		crc := t[0][v]
		for k := 1; k < 8; k++ {
			crc = crc<<8 ^ t[0][byte(crc>>8)]
			t[k][v] = crc
		}
	}
	return t
}

// Checksum returns the CRC-16/CCITT-FALSE of data.
func Checksum(data []byte) uint16 {
	return Update(Init, data)
}

// Update extends a running CRC with more data, enabling incremental
// computation across header and payload without concatenation. Blocks of
// eight bytes go through the slicing tables; the tail (and short inputs)
// fall back to the byte-at-a-time reference path.
func Update(crc uint16, data []byte) uint16 {
	for len(data) >= 8 {
		// The 16-bit register only overlaps the first two bytes of the
		// block; the CRC is GF(2)-linear, so the eight per-byte
		// contributions combine with XOR.
		crc = _slice[7][data[0]^byte(crc>>8)] ^
			_slice[6][data[1]^byte(crc)] ^
			_slice[5][data[2]] ^
			_slice[4][data[3]] ^
			_slice[3][data[4]] ^
			_slice[2][data[5]] ^
			_slice[1][data[6]] ^
			_slice[0][data[7]]
		data = data[8:]
	}
	return updateBytewise(crc, data)
}

// updateBytewise is the byte-at-a-time reference implementation, kept as
// the cross-checked oracle for the slicing path (see TestSlicingMatchesBytewise).
func updateBytewise(crc uint16, data []byte) uint16 {
	for _, b := range data {
		crc = crc<<8 ^ _table[byte(crc>>8)^b]
	}
	return crc
}

// Verify reports whether data matches the expected checksum.
func Verify(data []byte, sum uint16) bool {
	return Checksum(data) == sum
}
