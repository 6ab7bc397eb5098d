package erasure

import "fmt"

// CodecID identifies a cooked-packet codec on the wire, in cache keys
// and in plan layouts. The zero value is the paper's fixed-rate
// Vandermonde code, so legacy layouts and frames keep their meaning.
type CodecID uint8

const (
	// CodecVandermonde is the fixed-rate systematic Rabin/IDA code: N
	// cooked packets are fixed per round, any M of them reconstruct.
	CodecVandermonde CodecID = 0
	// CodecFountain is the rateless LT-style code (internal/fountain):
	// the server streams cooked packets open-loop until the client has
	// decoded and says stop.
	CodecFountain CodecID = 1
)

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
		return CodecVandermonde, fmt.Errorf("erasure: unknown codec %q", s)
	}
}
