package packet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"mobweb/internal/crc"
)

func TestFountainRoundtrip(t *testing.T) {
	p := FountainPacket{Seed: 0xdead_beef_cafe_f00d, Gen: 513, Seq: 1 << 20, Payload: []byte("cooked rateless payload")}
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
	if got.Seed != p.Seed || got.Gen != p.Gen || got.Seq != p.Seq || !bytes.Equal(got.Payload, p.Payload) {
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
	p := FountainPacket{Seed: 7, Gen: 2, Seq: 9, Payload: make([]byte, 64)}
	frame, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < len(frame); pos++ { // every byte, codec byte included, is under the CRC
		frame[pos] ^= 0x40
		if _, err := ParseFountain(frame); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: got %v, want ErrCorrupt", pos, err)
		}
		frame[pos] ^= 0x40
	}
	// A wrong codec byte under a VALID CRC is a genuine protocol
	// disagreement, not channel noise: here the retired id 1, a frame of
	// the stream before it was systematic.
	frame[0] = 1
	sum := crc.Update(crc.Update(crc.Init, frame[:fountainCRCOff]), frame[FountainOverhead:])
	binary.BigEndian.PutUint16(frame[fountainCRCOff:FountainOverhead], sum)
	if _, err := ParseFountain(frame); !errors.Is(err, ErrCodecMismatch) {
		t.Fatalf("codec byte flip with valid CRC: got %v, want ErrCodecMismatch", err)
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
	cases := [][2]int{{0, 0}, {0, 5}, {3, 0}, {7, MaxFountainSeq}, {MaxFountainGen, 12345}}
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
}
