package erasure

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewCoderValidation(t *testing.T) {
	tests := []struct {
		name string
		m, n int
		ok   bool
	}{
		{"m zero", 0, 5, false},
		{"n below m", 5, 4, false},
		{"n equals m", 5, 5, true},
		{"typical paper shape", 40, 60, true},
		{"n too large", 3, 256, false},
		{"max n", 3, 255, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewCoder(tt.m, tt.n)
			if (err == nil) != tt.ok {
				t.Fatalf("NewCoder(%d, %d) err = %v, want ok=%v", tt.m, tt.n, err, tt.ok)
			}
		})
	}
}

func TestSystematicPrefix(t *testing.T) {
	c, err := NewCoder(4, 9)
	if err != nil {
		t.Fatal(err)
	}
	raw := randomPackets(rand.New(rand.NewSource(1)), 4, 32)
	cooked, err := c.Encode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(cooked) != 9 {
		t.Fatalf("len(cooked) = %d, want 9", len(cooked))
	}
	for i := 0; i < 4; i++ {
		if !bytes.Equal(cooked[i], raw[i]) {
			t.Errorf("cooked[%d] differs from raw[%d]; systematic prefix violated", i, i)
		}
	}
}

func TestDecodeAllSubsets(t *testing.T) {
	// Exhaustively verify the "any M of N" property for a small code.
	const m, n = 3, 6
	c, err := NewCoder(m, n)
	if err != nil {
		t.Fatal(err)
	}
	raw := randomPackets(rand.New(rand.NewSource(2)), m, 16)
	cooked, err := c.Encode(raw)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			for d := b + 1; d < n; d++ {
				rec := []Received{
					{Index: a, Data: cooked[a]},
					{Index: b, Data: cooked[b]},
					{Index: d, Data: cooked[d]},
				}
				got, err := c.Decode(rec)
				if err != nil {
					t.Fatalf("subset {%d,%d,%d}: %v", a, b, d, err)
				}
				for i := range raw {
					if !bytes.Equal(got[i], raw[i]) {
						t.Fatalf("subset {%d,%d,%d}: raw[%d] mismatch", a, b, d, i)
					}
				}
			}
		}
	}
}

func TestDecodePaperShape(t *testing.T) {
	// The paper's default: M=40, N=60. Drop 20 random packets and recover.
	c, err := NewCoder(40, 60)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	raw := randomPackets(rng, 40, 256)
	cooked, err := c.Encode(raw)
	if err != nil {
		t.Fatal(err)
	}
	perm := rng.Perm(60)
	rec := make([]Received, 0, 40)
	for _, idx := range perm[:40] {
		rec = append(rec, Received{Index: idx, Data: cooked[idx]})
	}
	got, err := c.Decode(rec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range raw {
		if !bytes.Equal(got[i], raw[i]) {
			t.Fatalf("raw[%d] mismatch after 33%% loss", i)
		}
	}
}

func TestDecodeShortSet(t *testing.T) {
	c, err := NewCoder(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	raw := randomPackets(rand.New(rand.NewSource(4)), 3, 8)
	cooked, err := c.Encode(raw)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Decode([]Received{{Index: 0, Data: cooked[0]}, {Index: 4, Data: cooked[4]}})
	if !errors.Is(err, ErrShortSet) {
		t.Fatalf("err = %v, want ErrShortSet", err)
	}
}

func TestDecodeDuplicateIndex(t *testing.T) {
	c, err := NewCoder(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	raw := randomPackets(rand.New(rand.NewSource(5)), 2, 8)
	cooked, err := c.Encode(raw)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Decode([]Received{
		{Index: 3, Data: cooked[3]},
		{Index: 3, Data: cooked[3]},
	})
	if !errors.Is(err, ErrDuplicateIndex) {
		t.Fatalf("err = %v, want ErrDuplicateIndex", err)
	}
}

func TestDecodeIndexOutOfRange(t *testing.T) {
	c, err := NewCoder(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Decode([]Received{
		{Index: 4, Data: make([]byte, 8)},
		{Index: 0, Data: make([]byte, 8)},
	})
	if err == nil {
		t.Fatal("out-of-range index accepted")
	}
}

func TestDecodeMismatchedSizes(t *testing.T) {
	c, err := NewCoder(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Decode([]Received{
		{Index: 0, Data: make([]byte, 8)},
		{Index: 1, Data: make([]byte, 9)},
	})
	if err == nil {
		t.Fatal("mismatched packet sizes accepted")
	}
}

func TestDecodePrefersClearText(t *testing.T) {
	// With all clear-text packets present the decode must be a pure copy
	// (no matrix inversion), observable through exact data recovery even
	// when extra redundant packets are supplied in front.
	c, err := NewCoder(3, 6)
	if err != nil {
		t.Fatal(err)
	}
	raw := randomPackets(rand.New(rand.NewSource(6)), 3, 8)
	cooked, err := c.Encode(raw)
	if err != nil {
		t.Fatal(err)
	}
	rec := []Received{
		{Index: 5, Data: cooked[5]},
		{Index: 0, Data: cooked[0]},
		{Index: 1, Data: cooked[1]},
		{Index: 2, Data: cooked[2]},
	}
	got, err := c.Decode(rec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range raw {
		if !bytes.Equal(got[i], raw[i]) {
			t.Fatalf("raw[%d] mismatch", i)
		}
	}
}

// TestEncodeInto keeps its name from the caller-buffer variant it once
// checked. Encode now always cooks into an arena of its own, and that is
// what is pinned: the cooked packets neither alias the raw input nor run
// into each other.
func TestEncodeInto(t *testing.T) {
	c, err := NewCoder(4, 7)
	if err != nil {
		t.Fatal(err)
	}
	raw := randomPackets(rand.New(rand.NewSource(7)), 4, 64)
	orig := make([][]byte, len(raw))
	for i, p := range raw {
		orig[i] = append([]byte(nil), p...)
	}
	cooked, err := c.Encode(raw)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, len(cooked))
	for i, p := range cooked {
		want[i] = append([]byte(nil), p...)
	}
	for i := range cooked {
		_ = append(cooked[i], 0xAA, 0xBB)
	}
	for i := range cooked {
		if !bytes.Equal(cooked[i], want[i]) {
			t.Fatalf("append to a neighbour clobbered cooked[%d]: arena views must be capacity-capped", i)
		}
	}
	for i := range cooked {
		for j := range cooked[i] {
			cooked[i][j] ^= 0xFF
		}
	}
	for i := range raw {
		if !bytes.Equal(raw[i], orig[i]) {
			t.Fatalf("writing to the cooked packets changed raw[%d]", i)
		}
	}
}

// TestEncodeIntoValidation keeps its name from the caller-buffer variant
// whose arguments it once checked. The validation that matters on the
// paths that remain: gf256.MulAddRows panics on mismatched lengths, so
// both encode entry points must turn a miscounted or ragged generation
// into an error before any row reaches the kernel.
func TestEncodeIntoValidation(t *testing.T) {
	c, err := NewCoder(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	for name, raw := range map[string][][]byte{
		"no packets":   nil,
		"too few":      {make([]byte, 8), make([]byte, 8)},
		"too many":     {make([]byte, 8), make([]byte, 8), make([]byte, 8), make([]byte, 8)},
		"ragged short": {make([]byte, 8), make([]byte, 8), make([]byte, 7)},
		"ragged long":  {make([]byte, 8), make([]byte, 9), make([]byte, 8)},
	} {
		if _, err := c.Encode(raw); err == nil {
			t.Errorf("Encode accepted %s", name)
		}
		if _, err := c.EncodeParityRow(raw, 0); err == nil {
			t.Errorf("EncodeParityRow accepted %s", name)
		}
	}
}

func TestEncodeValidation(t *testing.T) {
	c, err := NewCoder(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Encode([][]byte{make([]byte, 4)}); err == nil {
		t.Error("wrong raw count accepted")
	}
	if _, err := c.Encode([][]byte{make([]byte, 4), make([]byte, 5)}); err == nil {
		t.Error("ragged raw packets accepted")
	}
}

func TestPacketsFor(t *testing.T) {
	tests := []struct {
		doc, sp, want int
	}{
		{10240, 256, 40}, // the paper's default document
		{1, 256, 1},
		{256, 256, 1},
		{257, 256, 2},
		{0, 256, 1},
	}
	for _, tt := range tests {
		if got := PacketsFor(tt.doc, tt.sp); got != tt.want {
			t.Errorf("PacketsFor(%d, %d) = %d, want %d", tt.doc, tt.sp, got, tt.want)
		}
	}
}

func TestEndToEndProperty(t *testing.T) {
	// Property: for random raw packets and random survivor sets of size
	// M, encode→drop→decode recovers the raw packets exactly.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const sp = 64
		m := PacketsFor(1+rng.Intn(2000), sp)
		n := m + rng.Intn(m+1) // γ in [1, 2]
		if n > MaxCooked {
			n = MaxCooked
		}
		c, err := NewCoder(m, n)
		if err != nil {
			return false
		}
		raw := randomPackets(rng, m, sp)
		cooked, err := c.Encode(raw)
		if err != nil {
			return false
		}
		perm := rng.Perm(n)
		rec := make([]Received, 0, m)
		for _, idx := range perm[:m] {
			rec = append(rec, Received{Index: idx, Data: cooked[idx]})
		}
		dec, err := c.Decode(rec)
		if err != nil {
			return false
		}
		for i := range raw {
			if !bytes.Equal(dec[i], raw[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func randomPackets(rng *rand.Rand, m, size int) [][]byte {
	raw := make([][]byte, m)
	for i := range raw {
		raw[i] = make([]byte, size)
		rng.Read(raw[i])
	}
	return raw
}

func BenchmarkEncode40x60(b *testing.B) {
	c, err := NewCoder(40, 60)
	if err != nil {
		b.Fatal(err)
	}
	raw := randomPackets(rand.New(rand.NewSource(9)), 40, 256)
	b.SetBytes(40 * 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(raw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode40of60WorstCase(b *testing.B) {
	// Worst case: no clear-text packets survive; full matrix inversion.
	c, err := NewCoder(40, 60)
	if err != nil {
		b.Fatal(err)
	}
	raw := randomPackets(rand.New(rand.NewSource(10)), 40, 256)
	cooked, err := c.Encode(raw)
	if err != nil {
		b.Fatal(err)
	}
	rec := make([]Received, 0, 40)
	for i := 20; i < 60; i++ {
		rec = append(rec, Received{Index: i, Data: cooked[i]})
	}
	b.SetBytes(40 * 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decode(rec); err != nil {
			b.Fatal(err)
		}
	}
}
