// Package packet defines the wire unit of fault-tolerant multi-resolution
// transmission: a cooked packet framed with a sequence number and a CRC.
//
// The paper's Table 2 fixes the overhead O at 4 bytes per packet
// (CRC + sequence number); we realize that as a 2-byte big-endian sequence
// number followed by a 2-byte CRC-16 over sequence number and payload.
// Packets arrive either intact or corrupted-with-detectable-error; a
// missing packet is discovered by a gap in sequence numbers because the
// wireless channel is FIFO but unreliable (§4.1).
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"

	"mobweb/internal/crc"
)

// Overhead is the per-packet framing cost in bytes: 2 (sequence) + 2 (CRC),
// matching O = 4 in Table 2 of the paper.
const Overhead = 4

// MaxSeq is the largest representable sequence number.
const MaxSeq = 1<<16 - 1

// DefaultPayloadSize is the paper's raw packet size sp = 256 bytes, which
// frames into 260-byte cooked packets.
const DefaultPayloadSize = 256

// ErrCorrupt is returned by Unmarshal when the CRC check fails; the caller
// treats the packet as corrupted-with-detectable-error and discards it.
var ErrCorrupt = errors.New("packet: CRC mismatch")

// ErrTruncated is returned when a frame is too short to contain a header.
var ErrTruncated = errors.New("packet: frame shorter than header")

// Packet is one cooked packet ready for transmission.
type Packet struct {
	// Seq is the cooked packet's index in the encoded sequence (0-based).
	Seq int
	// Payload is the cooked payload of exactly the session's packet size.
	Payload []byte
}

// Marshal frames the packet as seq(2) || crc(2) || payload, where the CRC
// covers the sequence number and the payload so that header corruption is
// also detected.
func (p Packet) Marshal() ([]byte, error) {
	return p.AppendMarshal(make([]byte, 0, Overhead+len(p.Payload)))
}

// AppendMarshal appends the framed packet to dst and returns the extended
// slice, for allocation-free transmit loops: when dst has capacity for the
// frame, no allocation happens at all.
func (p Packet) AppendMarshal(dst []byte) ([]byte, error) {
	base := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = append(dst, p.Payload...)
	if err := FinishFrame(dst[base:], p.Seq); err != nil {
		return nil, err
	}
	return dst, nil
}

// FinishFrame writes the sequence number and CRC in place over frame,
// whose payload must already sit at frame[Overhead:]. Cook-in-place
// loops use it to skip a payload copy: reserve the header, encode the
// payload straight into the buffer, then finish.
func FinishFrame(frame []byte, seq int) error {
	if seq < 0 || seq > MaxSeq {
		return fmt.Errorf("packet: sequence %d outside [0, %d]", seq, MaxSeq)
	}
	if len(frame) < Overhead {
		return ErrTruncated
	}
	binary.BigEndian.PutUint16(frame[0:2], uint16(seq))
	sum := crc.Update(crc.Update(crc.Init, frame[0:2]), frame[Overhead:])
	binary.BigEndian.PutUint16(frame[2:4], sum)
	return nil
}

// Unmarshal parses a frame. It returns ErrTruncated for impossible sizes
// and ErrCorrupt when the CRC check fails; in the latter case the returned
// packet still carries the claimed sequence number, which receivers may
// use for diagnostics but must not trust. The returned payload is a copy
// and never aliases frame; hot paths that manage buffer lifetimes
// themselves should use Parse.
func Unmarshal(frame []byte) (Packet, error) {
	p, err := Parse(frame)
	p.Payload = append([]byte(nil), p.Payload...)
	return p, err
}

// Parse is the zero-copy variant of Unmarshal: the returned payload
// aliases frame, so it is only valid while the caller's frame buffer is.
// Receivers that retain packets across frames must copy the payload (or
// use Unmarshal).
func Parse(frame []byte) (Packet, error) {
	if len(frame) < Overhead {
		return Packet{}, ErrTruncated
	}
	seq := int(binary.BigEndian.Uint16(frame[0:2]))
	sum := binary.BigEndian.Uint16(frame[2:4])
	payload := frame[Overhead:]
	got := crc.Update(crc.Update(crc.Init, frame[0:2]), payload)
	p := Packet{Seq: seq, Payload: payload}
	if got != sum {
		return p, ErrCorrupt
	}
	return p, nil
}

// FrameSize returns the on-air size of a packet with the given payload
// size: payload + Overhead. With the paper's defaults this is 260 bytes.
func FrameSize(payloadSize int) int { return payloadSize + Overhead }

// CorruptFrame flips bits in a marshaled frame deterministically from the
// salt, guaranteeing the CRC no longer matches. It is used by the channel
// simulator and the transport fault injector to model a corrupted packet
// that remains detectable — the paper's error model.
func CorruptFrame(frame []byte, salt uint32) {
	if len(frame) == 0 {
		return
	}
	// Flip one payload byte (or a header byte on tiny frames). Flipping a
	// single bit is always detected by CRC-16, keeping the "detectable
	// error" contract exact.
	// The modulus is taken in uint32: int(salt) is negative on 32-bit
	// platforms once salt ≥ 2³¹.
	pos := int(salt % uint32(len(frame)))
	bit := byte(1) << (salt % 8)
	frame[pos] ^= bit
}
