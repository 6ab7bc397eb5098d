package packet

import (
	"encoding/binary"
	"fmt"

	"mobweb/internal/crc"
)

// Fountain frame format. A rateless stream cannot reuse the fixed-rate
// frame: the generation matters on the wire (the client stops
// generations independently) and a generation's seq space is its own.
// The header is therefore
//
//	gen(2) || seq(2) || crc(2) || payload
//
// with the CRC-16 covering gen, seq and the payload. Which stream a frame
// belongs to is not on the air: the layout header names the codec and
// seed once, Layout.SameStream checks them, and a frame only reaches the
// receiver of the connection whose header passed that check.
const (
	// FountainOverhead is the fountain framing cost in bytes.
	FountainOverhead = 6
	// MaxFountainSeq bounds the per-generation fountain seq.
	MaxFountainSeq = 1<<16 - 1
	// MaxFountainGen bounds the generation index, so that PackSeq of any
	// valid pair fits an int32.
	MaxFountainGen = 1<<15 - 1
	// fountainCRCOff is the offset of the CRC field; the CRC covers
	// frame[0:fountainCRCOff] and the payload.
	fountainCRCOff = 4
)

// FountainPacket is one cooked rateless packet ready for transmission.
type FountainPacket struct {
	// Gen is the generation (dispersal group) this packet encodes.
	Gen int
	// Seq is the packet's index in the generation's stream.
	Seq int
	// Payload is the cooked payload of exactly the session's packet size.
	Payload []byte
}

// Marshal frames the packet into a fresh slice.
func (p FountainPacket) Marshal() ([]byte, error) {
	return p.AppendMarshal(nil)
}

// AppendMarshal appends the framed packet to dst and returns the
// extended slice, allocation-free when dst has capacity.
func (p FountainPacket) AppendMarshal(dst []byte) ([]byte, error) {
	base := len(dst)
	var hdr [FountainOverhead]byte // stack scratch; FinishFountainFrame overwrites it
	dst = append(dst, hdr[:]...)
	dst = append(dst[:base+FountainOverhead], p.Payload...)
	if err := FinishFountainFrame(dst[base:], p.Gen, p.Seq); err != nil {
		return nil, err
	}
	return dst, nil
}

// FinishFountainFrame writes the fountain header and CRC in place over
// frame, whose payload must already sit at frame[FountainOverhead:].
// Cook-in-place transmit loops use it to skip a payload copy: reserve
// the header, cook the payload directly into the buffer, then finish.
func FinishFountainFrame(frame []byte, gen, seq int) error {
	if gen < 0 || gen > MaxFountainGen {
		return fmt.Errorf("packet: fountain gen %d outside [0, %d]", gen, MaxFountainGen)
	}
	if seq < 0 || seq > MaxFountainSeq {
		return fmt.Errorf("packet: fountain seq %d outside [0, %d]", seq, MaxFountainSeq)
	}
	if len(frame) < FountainOverhead {
		return ErrTruncated
	}
	binary.BigEndian.PutUint16(frame[0:2], uint16(gen))
	binary.BigEndian.PutUint16(frame[2:4], uint16(seq))
	sum := crc.Update(crc.Update(crc.Init, frame[:fountainCRCOff]), frame[FountainOverhead:])
	binary.BigEndian.PutUint16(frame[fountainCRCOff:FountainOverhead], sum)
	return nil
}

// ParseFountain parses a fountain frame zero-copy: the returned payload
// aliases frame. It returns ErrTruncated for impossible sizes and
// ErrCorrupt when the CRC check fails (the returned header fields are
// then diagnostic only).
func ParseFountain(frame []byte) (FountainPacket, error) {
	if len(frame) < FountainOverhead {
		return FountainPacket{}, ErrTruncated
	}
	p := FountainPacket{
		Gen:     int(binary.BigEndian.Uint16(frame[0:2])),
		Seq:     int(binary.BigEndian.Uint16(frame[2:4])),
		Payload: frame[FountainOverhead:],
	}
	sum := binary.BigEndian.Uint16(frame[fountainCRCOff:FountainOverhead])
	if crc.Update(crc.Update(crc.Init, frame[:fountainCRCOff]), p.Payload) != sum {
		return p, ErrCorrupt
	}
	return p, nil
}

// UnmarshalFountain parses a fountain frame with a copied payload.
func UnmarshalFountain(frame []byte) (FountainPacket, error) {
	p, err := ParseFountain(frame)
	p.Payload = append([]byte(nil), p.Payload...)
	return p, err
}

// FountainFrameSize returns the on-air size of a fountain packet with
// the given payload size.
func FountainFrameSize(payloadSize int) int { return payloadSize + FountainOverhead }

// PackSeq folds a fountain (gen, seq) pair into the single int space
// used by Have lists, receiver intact maps and persisted resume state,
// keeping those paths codec-agnostic. Fixed-rate seqs (≤ MaxSeq) never
// collide with packed fountain seqs of gen > 0; gen 0 packs to the raw
// seq, which is also what the fixed-rate code would call it. A valid
// pair packs to at most PackSeq(MaxFountainGen, MaxFountainSeq), which
// fits an int32.
func PackSeq(gen, seq int) int { return gen<<16 | seq }

// UnpackSeq splits a packed fountain seq back into (gen, seq).
func UnpackSeq(packed int) (gen, seq int) {
	return packed >> 16, packed & MaxFountainSeq
}
