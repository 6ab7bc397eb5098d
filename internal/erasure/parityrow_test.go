package erasure

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestEncodeParityRowMatchesEncodeParity checks row-at-a-time encoding
// against the parity rows of the whole-generation Encode every test
// cooks with (the bulk EncodeParity of its name is gone): every row must
// be byte-identical. TestParallelEncodeMatchesSerial repeats this over
// the full shape × packet-size matrix.
func TestEncodeParityRowMatchesEncodeParity(t *testing.T) {
	const m, n = 5, 9
	c, err := NewCoder(m, n)
	if err != nil {
		t.Fatal(err)
	}
	raw := randomPackets(rand.New(rand.NewSource(7)), m, 64)
	cooked, err := c.Encode(raw)
	if err != nil {
		t.Fatal(err)
	}
	for row := 0; row < n-m; row++ {
		got, err := c.EncodeParityRow(raw, row)
		if err != nil {
			t.Fatalf("row %d: %v", row, err)
		}
		if !bytes.Equal(got, cooked[m+row]) {
			t.Fatalf("row %d differs from Encode's parity row", row)
		}
	}
}

func TestEncodeParityRowBounds(t *testing.T) {
	c, err := NewCoder(4, 6)
	if err != nil {
		t.Fatal(err)
	}
	raw := randomPackets(rand.New(rand.NewSource(8)), 4, 16)
	for _, row := range []int{-1, 2, 100} {
		if _, err := c.EncodeParityRow(raw, row); err == nil {
			t.Fatalf("row %d: expected out-of-range error", row)
		}
	}
	// Raw validation still applies.
	if _, err := c.EncodeParityRow(raw[:2], 0); err == nil {
		t.Fatal("short raw: expected error")
	}
}

// TestEncodeParityRowIsolated verifies a single row encode does not
// disturb later whole-tail results and returns a private slice.
func TestEncodeParityRowIsolated(t *testing.T) {
	const m, n = 3, 6
	c, err := NewCoder(m, n)
	if err != nil {
		t.Fatal(err)
	}
	raw := randomPackets(rand.New(rand.NewSource(9)), m, 32)
	first, err := c.EncodeParityRow(raw, 1)
	if err != nil {
		t.Fatal(err)
	}
	clobber := append([]byte(nil), first...)
	for i := range first {
		first[i] ^= 0xff
	}
	again, err := c.EncodeParityRow(raw, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, clobber) {
		t.Fatal("EncodeParityRow result aliases internal state")
	}
}
