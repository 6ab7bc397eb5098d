package crc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKnownVectors(t *testing.T) {
	// CRC-16/CCITT-FALSE reference values (check value from the CRC
	// catalogue: "123456789" → 0x29B1).
	tests := []struct {
		name string
		in   string
		want uint16
	}{
		{"catalogue check", "123456789", 0x29B1},
		{"empty", "", 0xFFFF},
		{"single A", "A", 0xB915},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Checksum([]byte(tt.in)); got != tt.want {
				t.Errorf("Checksum(%q) = %#04x, want %#04x", tt.in, got, tt.want)
			}
		})
	}
	// Every frame is checksummed on both sides, through the slicing path
	// and the byte-at-a-time tail: neither may allocate.
	data := []byte("123456789")
	for name, fn := range map[string]func() uint16{
		"Checksum":       func() uint16 { return Checksum(data) },
		"updateBytewise": func() uint16 { return updateBytewise(Init, data) },
	} {
		if allocs := testing.AllocsPerRun(100, func() { fn() }); allocs != 0 {
			t.Errorf("%s allocates %.0f times per call, want 0", name, allocs)
		}
	}
}

func TestBitByBitEquivalence(t *testing.T) {
	// The table-driven implementation must agree with the naive
	// shift-register reference on random inputs.
	ref := func(data []byte) uint16 {
		crc := uint16(Init)
		for _, b := range data {
			crc ^= uint16(b) << 8
			for bit := 0; bit < 8; bit++ {
				if crc&0x8000 != 0 {
					crc = crc<<1 ^ Poly
				} else {
					crc <<= 1
				}
			}
		}
		return crc
	}
	f := func(data []byte) bool { return Checksum(data) == ref(data) }
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestUpdateIncremental(t *testing.T) {
	f := func(a, b []byte) bool {
		whole := Checksum(append(append([]byte(nil), a...), b...))
		incr := Update(Update(Init, a), b)
		return whole == incr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDetectsAllSingleBitErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 260) // one cooked packet
	rng.Read(data)
	sum := Checksum(data)
	for i := range data {
		for bit := 0; bit < 8; bit++ {
			data[i] ^= 1 << bit
			if Verify(data, sum) {
				t.Fatalf("single-bit flip at byte %d bit %d undetected", i, bit)
			}
			data[i] ^= 1 << bit
		}
	}
}

func TestDetectsAllShortBursts(t *testing.T) {
	// Every contiguous error burst of length <= 16 bits must be detected.
	rng := rand.New(rand.NewSource(2))
	data := make([]byte, 64)
	rng.Read(data)
	sum := Checksum(data)
	totalBits := len(data) * 8
	flip := func(bitPos int) {
		data[bitPos/8] ^= 1 << (7 - bitPos%8)
	}
	for burstLen := 1; burstLen <= 16; burstLen++ {
		for start := 0; start+burstLen <= totalBits; start++ {
			// A burst flips its first and last bits; interior bits are
			// chosen deterministically to vary patterns.
			flip(start)
			if burstLen > 1 {
				flip(start + burstLen - 1)
				for k := 1; k < burstLen-1; k++ {
					if (start+k)%3 == 0 {
						flip(start + k)
					}
				}
			}
			if Verify(data, sum) {
				t.Fatalf("burst len %d at bit %d undetected", burstLen, start)
			}
			// Undo.
			flip(start)
			if burstLen > 1 {
				flip(start + burstLen - 1)
				for k := 1; k < burstLen-1; k++ {
					if (start+k)%3 == 0 {
						flip(start + k)
					}
				}
			}
		}
	}
}

func TestVerify(t *testing.T) {
	data := []byte("mobile web browsing")
	if !Verify(data, Checksum(data)) {
		t.Error("Verify rejects a correct checksum")
	}
	if Verify(data, Checksum(data)^1) {
		t.Error("Verify accepts a wrong checksum")
	}
}

func BenchmarkChecksum260(b *testing.B) {
	data := make([]byte, 260)
	rand.New(rand.NewSource(3)).Read(data)
	b.SetBytes(260)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Checksum(data)
	}
}
