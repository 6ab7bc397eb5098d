package packet

import (
	"bytes"
	"errors"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	f := func(seq uint16, payload []byte) bool {
		p := Packet{Seq: int(seq), Payload: payload}
		frame, err := p.Marshal()
		if err != nil {
			return false
		}
		got, err := Unmarshal(frame)
		if err != nil {
			return false
		}
		return got.Seq == int(seq) && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestOverheadMatchesPaper(t *testing.T) {
	p := Packet{Seq: 7, Payload: make([]byte, DefaultPayloadSize)}
	frame, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) != 260 {
		t.Errorf("frame size = %d, want 260 (sp=256 + O=4 per Table 2)", len(frame))
	}
	if FrameSize(DefaultPayloadSize) != 260 {
		t.Errorf("FrameSize(256) = %d, want 260", FrameSize(DefaultPayloadSize))
	}
}

func TestMarshalSeqRange(t *testing.T) {
	if _, err := (Packet{Seq: -1}).Marshal(); err == nil {
		t.Error("negative seq accepted")
	}
	if _, err := (Packet{Seq: MaxSeq + 1}).Marshal(); err == nil {
		t.Error("overlarge seq accepted")
	}
	if _, err := (Packet{Seq: MaxSeq}).Marshal(); err != nil {
		t.Error("MaxSeq rejected")
	}
}

func TestUnmarshalTruncated(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3} {
		if _, err := Unmarshal(make([]byte, n)); !errors.Is(err, ErrTruncated) {
			t.Errorf("Unmarshal(%d bytes) err = %v, want ErrTruncated", n, err)
		}
	}
}

func TestUnmarshalDetectsPayloadCorruption(t *testing.T) {
	p := Packet{Seq: 3, Payload: []byte("organizational unit data")}
	frame, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for i := range frame {
		frame[i] ^= 0x40
		if _, err := Unmarshal(frame); !errors.Is(err, ErrCorrupt) {
			t.Errorf("corruption at byte %d undetected (err = %v)", i, err)
		}
		frame[i] ^= 0x40
	}
}

func TestUnmarshalCorruptKeepsClaimedSeq(t *testing.T) {
	p := Packet{Seq: 42, Payload: []byte("x")}
	frame, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	frame[len(frame)-1] ^= 1
	got, err := Unmarshal(frame)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if got.Seq != 42 {
		t.Errorf("claimed seq = %d, want 42", got.Seq)
	}
}

func TestCorruptFrameAlwaysDetectable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		payload := make([]byte, 1+rng.Intn(300))
		rng.Read(payload)
		p := Packet{Seq: rng.Intn(MaxSeq), Payload: payload}
		frame, err := p.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		CorruptFrame(frame, rng.Uint32())
		if _, err := Unmarshal(frame); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("trial %d: CorruptFrame produced an undetected corruption", trial)
		}
	}
}

// CorruptFrame's flip position must not depend on the platform's int
// width: salts at and past 2³¹ once indexed out of range on 32-bit
// targets.
func TestCorruptFrameSaltsAnyWidth(t *testing.T) {
	fixed, _ := Packet{Seq: 7, Payload: make([]byte, 256)}.Marshal()
	fountain, _ := FountainPacket{Gen: 3, Seq: 7, Payload: make([]byte, 256)}.Marshal()
	frames := []struct {
		frame []byte
		parse func([]byte) error // nil: too short for a header
	}{
		{[]byte{0}, nil},
		{fixed, func(f []byte) error { _, err := Parse(f); return err }},
		{fountain, func(f []byte) error { _, err := ParseFountain(f); return err }},
	}
	for _, salt := range []uint32{0, 1 << 31, 1<<32 - 1} {
		for _, c := range frames {
			frame := append([]byte(nil), c.frame...)
			CorruptFrame(frame, salt)
			flipped := 0
			for i := range frame {
				flipped += bits.OnesCount8(frame[i] ^ c.frame[i])
			}
			if flipped != 1 {
				t.Errorf("salt %#x, %d-byte frame: %d bits flipped, want 1", salt, len(frame), flipped)
			}
			if c.parse != nil {
				if err := c.parse(frame); !errors.Is(err, ErrCorrupt) {
					t.Errorf("salt %#x, %d-byte frame: parse gave %v, want ErrCorrupt", salt, len(frame), err)
				}
			}
		}
	}
}

func TestUnmarshalCopiesPayload(t *testing.T) {
	p := Packet{Seq: 0, Payload: []byte("abc")}
	frame, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(frame)
	if err != nil {
		t.Fatal(err)
	}
	frame[Overhead] = 'z'
	if got.Payload[0] != 'a' {
		t.Error("Unmarshal aliases the input frame; must copy at the boundary")
	}
}

func TestAppendMarshal(t *testing.T) {
	p := Packet{Seq: 9, Payload: []byte("hi")}
	prefix := []byte{0xAA}
	out, err := p.AppendMarshal(prefix)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 0xAA {
		t.Error("AppendMarshal lost the prefix")
	}
	if _, err := Unmarshal(out[1:]); err != nil {
		t.Errorf("appended frame does not parse: %v", err)
	}
}

func BenchmarkMarshal(b *testing.B) {
	p := Packet{Seq: 17, Payload: make([]byte, DefaultPayloadSize)}
	b.SetBytes(int64(FrameSize(DefaultPayloadSize)))
	for i := 0; i < b.N; i++ {
		if _, err := p.Marshal(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshal(b *testing.B) {
	p := Packet{Seq: 17, Payload: make([]byte, DefaultPayloadSize)}
	frame, err := p.Marshal()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(frame); err != nil {
			b.Fatal(err)
		}
	}
}
