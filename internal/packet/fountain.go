package packet

import (
	"encoding/binary"
	"fmt"

	"mobweb/internal/crc"
)

// Fountain frame format. A rateless stream cannot reuse the fixed-rate
// frame: its seq space is unbounded (not ≤ N), generations matter on
// the wire (the client stops them independently), and a frame must be
// self-describing enough that a relay or cache can identify the exact
// stream it belongs to. The header is therefore
//
//	codec(1) || seed(8) || gen(2) || seq(4) || crc(2) || payload
//
// with the CRC-16 covering everything before it plus the payload. The
// codec byte is FountainCodecByte; parsing is codec-directed (the
// layout names the codec), the byte is a cross-check, not a sniffing
// mechanism — legacy frames start with an arbitrary seq high byte.
const (
	// FountainOverhead is the fountain framing cost in bytes.
	FountainOverhead = 17
	// FountainCodecByte is the codec id carried in byte 0 of a fountain
	// frame (erasure.CodecFountain; duplicated here to keep packet
	// dependency-free). A frame of the retired id 1, the stream before it
	// was systematic, fails with ErrCodecMismatch.
	FountainCodecByte = 2
	// MaxFountainSeq bounds the per-generation fountain seq.
	MaxFountainSeq = 1<<32 - 1
	// MaxFountainGen bounds the generation index on the wire.
	MaxFountainGen = 1<<16 - 1
	// fountainCRCOff is the offset of the CRC field; the CRC covers
	// frame[0:fountainCRCOff] and the payload.
	fountainCRCOff = 15
)

// ErrCodecMismatch is returned when a frame's codec byte does not match
// the parser invoked on it.
var ErrCodecMismatch = fmt.Errorf("packet: frame codec byte mismatch")

// FountainPacket is one cooked rateless packet ready for transmission.
type FountainPacket struct {
	// Seed identifies the stream; encoder and decoder derive identical
	// packet combinations from it.
	Seed uint64
	// Gen is the generation (dispersal group) this packet encodes.
	Gen int
	// Seq is the packet's index in the generation's unbounded stream.
	Seq int
	// Payload is the cooked payload of exactly the session's packet size.
	Payload []byte
}

// check validates header field ranges.
func (p FountainPacket) check() error {
	if p.Gen < 0 || p.Gen > MaxFountainGen {
		return fmt.Errorf("packet: fountain gen %d outside [0, %d]", p.Gen, MaxFountainGen)
	}
	if p.Seq < 0 || p.Seq > MaxFountainSeq {
		return fmt.Errorf("packet: fountain seq %d outside [0, %d]", p.Seq, MaxFountainSeq)
	}
	return nil
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
	if err := FinishFountainFrame(dst[base:], p.Seed, p.Gen, p.Seq); err != nil {
		return nil, err
	}
	return dst, nil
}

// FinishFountainFrame writes the fountain header and CRC in place over
// frame, whose payload must already sit at frame[FountainOverhead:].
// Cook-in-place transmit loops use it to skip a payload copy: reserve
// the header, cook the payload directly into the buffer, then finish.
func FinishFountainFrame(frame []byte, seed uint64, gen, seq int) error {
	if err := (FountainPacket{Seed: seed, Gen: gen, Seq: seq}).check(); err != nil {
		return err
	}
	if len(frame) < FountainOverhead {
		return ErrTruncated
	}
	frame[0] = FountainCodecByte
	binary.BigEndian.PutUint64(frame[1:9], seed)
	binary.BigEndian.PutUint16(frame[9:11], uint16(gen))
	binary.BigEndian.PutUint32(frame[11:15], uint32(seq))
	sum := crc.Update(crc.Update(crc.Init, frame[:fountainCRCOff]), frame[FountainOverhead:])
	binary.BigEndian.PutUint16(frame[fountainCRCOff:FountainOverhead], sum)
	return nil
}

// ParseFountain parses a fountain frame zero-copy: the returned payload
// aliases frame. It returns ErrTruncated for impossible sizes,
// ErrCodecMismatch when byte 0 is not the fountain codec id, and
// ErrCorrupt when the CRC check fails (the returned header fields are
// then diagnostic only).
func ParseFountain(frame []byte) (FountainPacket, error) {
	if len(frame) < FountainOverhead {
		return FountainPacket{}, ErrTruncated
	}
	p := FountainPacket{
		Seed:    binary.BigEndian.Uint64(frame[1:9]),
		Gen:     int(binary.BigEndian.Uint16(frame[9:11])),
		Seq:     int(binary.BigEndian.Uint32(frame[11:15])),
		Payload: frame[FountainOverhead:],
	}
	// The CRC arbitrates before the codec byte: a flipped codec byte on a
	// lossy channel is corruption (every header byte is under the CRC),
	// while a mismatch on a frame whose CRC checks out means sender and
	// receiver genuinely disagree about the wire protocol.
	sum := binary.BigEndian.Uint16(frame[fountainCRCOff:FountainOverhead])
	got := crc.Update(crc.Update(crc.Init, frame[:fountainCRCOff]), p.Payload)
	if got != sum {
		return p, ErrCorrupt
	}
	if frame[0] != FountainCodecByte {
		return FountainPacket{}, ErrCodecMismatch
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
// keeping those paths codec-agnostic. Fixed-rate seqs (< 2^16) never
// collide with packed fountain seqs of gen > 0; gen 0 packs to the raw
// seq, which is also what the fixed-rate code would call it.
func PackSeq(gen, seq int) int { return gen<<32 | seq }

// UnpackSeq splits a packed fountain seq back into (gen, seq).
func UnpackSeq(packed int) (gen, seq int) {
	return packed >> 32, packed & MaxFountainSeq
}
