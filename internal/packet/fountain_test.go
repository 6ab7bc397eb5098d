package packet

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

func TestFountainRoundtrip(t *testing.T) {
	p := FountainPacket{Gen: 513, Seq: MaxFountainSeq, Payload: []byte("cooked rateless payload")}
	frame, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) != FountainFrameSize(len(p.Payload)) {
		t.Fatalf("frame size %d, want %d", len(frame), FountainFrameSize(len(p.Payload)))
	}
	got, err := ParseFountain(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got.Gen != p.Gen || got.Seq != p.Seq || !bytes.Equal(got.Payload, p.Payload) {
		t.Fatalf("roundtrip mismatch: %+v != %+v", got, p)
	}
	cp, err := UnmarshalFountain(frame)
	if err != nil {
		t.Fatal(err)
	}
	frame[len(frame)-1] ^= 0xff
	if bytes.Equal(cp.Payload, frame[FountainOverhead:]) {
		t.Fatal("UnmarshalFountain payload aliases the frame")
	}
}

func TestFountainCorruptionDetected(t *testing.T) {
	p := FountainPacket{Gen: 2, Seq: 9, Payload: make([]byte, 64)}
	frame, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < len(frame); pos++ { // every byte, header included, is under the CRC
		frame[pos] ^= 0x40
		if _, err := ParseFountain(frame); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: got %v, want ErrCorrupt", pos, err)
		}
		frame[pos] ^= 0x40
	}
}

func TestFountainValidation(t *testing.T) {
	if _, err := ParseFountain(make([]byte, FountainOverhead-1)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short frame: %v", err)
	}
	if _, err := (FountainPacket{Gen: -1}).Marshal(); err == nil {
		t.Error("negative gen accepted")
	}
	if _, err := (FountainPacket{Gen: MaxFountainGen + 1}).Marshal(); err == nil {
		t.Error("oversized gen accepted")
	}
	if _, err := (FountainPacket{Seq: -1}).Marshal(); err == nil {
		t.Error("negative seq accepted")
	}
	if _, err := (FountainPacket{Seq: MaxFountainSeq + 1}).Marshal(); err == nil {
		t.Error("oversized seq accepted")
	}
}

func TestPackSeq(t *testing.T) {
	cases := [][2]int{{0, 0}, {0, 5}, {3, 0}, {7, MaxFountainSeq}, {MaxFountainGen, 12345},
		{MaxFountainGen, 0}, {0, MaxFountainSeq}, {MaxFountainGen, MaxFountainSeq}}
	for _, c := range cases {
		packed := PackSeq(c[0], c[1])
		gen, seq := UnpackSeq(packed)
		if gen != c[0] || seq != c[1] {
			t.Fatalf("PackSeq(%d,%d) roundtripped to (%d,%d)", c[0], c[1], gen, seq)
		}
	}
	if PackSeq(0, 42) != 42 {
		t.Fatal("gen-0 packed seq must equal the raw seq")
	}
	if PackSeq(1, 0) <= MaxSeq {
		t.Fatal("a packed seq of generation 1 collides with the fixed-rate seq space")
	}
	if top := int64(PackSeq(MaxFountainGen, MaxFountainSeq)); top > math.MaxInt32 {
		t.Fatalf("largest packed seq %d does not fit an int32", top)
	}
}
