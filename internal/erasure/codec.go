package erasure

import (
	"errors"
	"fmt"
)

// CodecID identifies a cooked-packet codec on the wire, in cache keys
// and in plan layouts. The zero value is the paper's fixed-rate
// Vandermonde code, so legacy layouts and frames keep their meaning.
type CodecID uint8

const (
	// CodecVandermonde is the fixed-rate systematic Rabin/IDA code: N
	// cooked packets are fixed per round, any M of them reconstruct.
	CodecVandermonde CodecID = 0
	// CodecFountain is the systematic rateless code (internal/fountain):
	// the server streams cooked packets, as many as the client's credit
	// allows, until the client has decoded and says stop. Id 1 named the rateless stream before it was
	// systematic and is retired: under it the same (seed, gen, seq) names
	// another combination, so a layout, frame or stored packet carrying
	// id 1 is refused, never decoded under this generator.
	CodecFountain CodecID = 2
)

// ErrUnknownCodec reports a codec id this build does not decode, the
// retired id 1 included.
var ErrUnknownCodec = errors.New("erasure: unknown codec")

// String returns the canonical lower-case codec name used by flags,
// gateway headers and benchmark output.
func (id CodecID) String() string {
	switch id {
	case CodecVandermonde:
		return "vandermonde"
	case CodecFountain:
		return "fountain"
	default:
		return fmt.Sprintf("codec(%d)", uint8(id))
	}
}

// Valid reports whether id names a known codec.
func (id CodecID) Valid() bool {
	return id == CodecVandermonde || id == CodecFountain
}

// ParseCodec maps a flag/header value to a CodecID. The empty string
// selects the default (Vandermonde) so absent headers keep today's
// behavior.
func ParseCodec(s string) (CodecID, error) {
	switch s {
	case "", "vandermonde", "vand", "rs":
		return CodecVandermonde, nil
	case "fountain", "lt":
		return CodecFountain, nil
	default:
		return CodecVandermonde, fmt.Errorf("%w %q", ErrUnknownCodec, s)
	}
}
