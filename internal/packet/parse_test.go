package packet

import (
	"bytes"
	"errors"
	"testing"
)

func TestParseAliasesFrame(t *testing.T) {
	p := Packet{Seq: 7, Payload: []byte("abcdefgh")}
	frame, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 7 || !bytes.Equal(got.Payload, p.Payload) {
		t.Fatalf("Parse = %+v", got)
	}
	// Zero-copy contract: the payload is a view into the frame.
	frame[Overhead] ^= 0xFF
	if got.Payload[0] == 'a' {
		t.Fatal("Parse copied the payload; expected an aliasing view")
	}

	// Unmarshal must keep its copying contract.
	frame[Overhead] ^= 0xFF
	cp, err := Unmarshal(frame)
	if err != nil {
		t.Fatal(err)
	}
	frame[Overhead] ^= 0xFF
	if cp.Payload[0] != 'a' {
		t.Fatal("Unmarshal payload aliases the frame; expected a copy")
	}
}

func TestParseCorruptAndTruncated(t *testing.T) {
	p := Packet{Seq: 3, Payload: []byte("payload")}
	frame, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	frame[len(frame)-1] ^= 1
	if _, err := Parse(frame); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt frame: err = %v, want ErrCorrupt", err)
	}
	if _, err := Parse(frame[:Overhead-1]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short frame: err = %v, want ErrTruncated", err)
	}
}

func TestAppendMarshalMatchesMarshal(t *testing.T) {
	p := Packet{Seq: 1234, Payload: []byte("the payload bytes")}
	want, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// Fresh append.
	got, err := p.AppendMarshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendMarshal(nil) = %x, want %x", got, want)
	}
	// Append onto a prefix.
	prefix := []byte("xx")
	got, err = p.AppendMarshal(prefix)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, append([]byte("xx"), want...)) {
		t.Fatalf("AppendMarshal(prefix) = %x", got)
	}
	// Reused buffer with capacity: no growth, same bytes.
	buf := make([]byte, 0, len(want))
	got, err = p.AppendMarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendMarshal(reused) = %x, want %x", got, want)
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("AppendMarshal reallocated despite sufficient capacity")
	}
	if _, err := (Packet{Seq: -1}).AppendMarshal(nil); err == nil {
		t.Fatal("negative sequence accepted")
	}
}

// Every per-frame marshal and parse, both frame formats, and the CRC
// under them runs allocation-free once the caller's buffer has room.
func TestAppendMarshalAllocFree(t *testing.T) {
	p := Packet{Seq: 9, Payload: make([]byte, 256)}
	fp := FountainPacket{Gen: 1, Seq: 300, Payload: make([]byte, 256)}
	buf := make([]byte, 0, 300)
	frame, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	fframe, err := fp.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		fn   func() error
	}{
		{"Packet.AppendMarshal", func() error { _, err := p.AppendMarshal(buf[:0]); return err }},
		{"Parse", func() error { _, err := Parse(frame); return err }},
		{"FountainPacket.AppendMarshal", func() error { _, err := fp.AppendMarshal(buf[:0]); return err }},
		{"ParseFountain", func() error { _, err := ParseFountain(fframe); return err }},
	} {
		allocs := testing.AllocsPerRun(100, func() {
			if err := c.fn(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s allocated %.1f times per call, want 0", c.name, allocs)
		}
	}
}
