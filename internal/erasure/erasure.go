// Package erasure implements the systematic information-dispersal codec
// at the heart of fault-tolerant multi-resolution transmission (§4.1 of
// the paper).
//
// A payload is split into M raw packets of equal size. A Coder expands
// them into N >= M "cooked" packets that are GF(2^8)-linear combinations
// of the raw packets, using a Vandermonde dispersal matrix brought into
// systematic form:
//
//   - the first M cooked packets are byte-identical to the raw packets
//     ("clear text"), so a receiver can consume content before collecting
//     all of M packets, and
//   - ANY M intact cooked packets reconstruct all M raw packets, by
//     inverting the corresponding M×M submatrix (Rabin's IDA, JACM 1989,
//     with the Vandermonde modification the paper describes).
//
// The byte work is gf256.MulAddRows, one call per output row, rows in
// order on the calling goroutine: the server cooks the parity rows of a
// frame block on a frame-cache miss (EncodeParityRowInto) and the
// client's Decoder solves only for the raw packets that did not arrive
// in clear text. The Decoder
// takes its repair rows from a function, so the rateless code
// (internal/fountain) decodes through it too.
package erasure

import (
	"errors"
	"fmt"

	"mobweb/internal/gf256"
	"mobweb/internal/matrix"
)

// Limits imposed by the GF(2^8) Vandermonde construction: the dispersal
// matrix needs N distinct evaluation points among the 255 non-zero field
// elements.
const (
	// MaxCooked is the largest supported number of cooked packets.
	MaxCooked = 255
)

// Errors reported by the codec. They are exported so transmission-layer
// callers can distinguish "not yet reconstructible" from hard failures.
var (
	// ErrShortSet signals fewer than M packets were supplied to Decode.
	ErrShortSet = errors.New("erasure: fewer than M packets available")
	// ErrDuplicateIndex signals the same cooked index appeared twice.
	ErrDuplicateIndex = errors.New("erasure: duplicate cooked packet index")
)

// Coder encodes M raw packets into N cooked packets and decodes any M of
// them back. A Coder is immutable after construction and safe for
// concurrent use.
type Coder struct {
	m, n      int
	dispersal *matrix.Matrix // n×m systematic dispersal matrix
}

// NewCoder constructs a systematic (m, n) coder. It returns an error when
// the shape is infeasible: m < 1, n < m, or n > MaxCooked.
func NewCoder(m, n int) (*Coder, error) {
	if m < 1 {
		return nil, fmt.Errorf("erasure: m = %d, want >= 1", m)
	}
	if n < m {
		return nil, fmt.Errorf("erasure: n = %d < m = %d", n, m)
	}
	if n > MaxCooked {
		return nil, fmt.Errorf("erasure: n = %d exceeds %d", n, MaxCooked)
	}
	v, err := matrix.Vandermonde(n, m)
	if err != nil {
		return nil, fmt.Errorf("dispersal matrix: %w", err)
	}
	sys, err := v.Systematic()
	if err != nil {
		return nil, fmt.Errorf("dispersal matrix: %w", err)
	}
	return &Coder{m: m, n: n, dispersal: sys}, nil
}

// M returns the number of raw packets.
func (c *Coder) M() int { return c.m }

// N returns the number of cooked packets.
func (c *Coder) N() int { return c.n }

// allocPackets carves count packet slices of size bytes out of one
// backing arena. The full slice expressions cap each view at its own
// region, so an append on one packet can never scribble on its neighbor.
func allocPackets(count, size int) [][]byte {
	backing := make([]byte, count*size)
	out := make([][]byte, count)
	for i := range out {
		out[i] = backing[i*size : (i+1)*size : (i+1)*size]
	}
	return out
}

// checkRaw validates the raw packet set and returns the shared size.
func (c *Coder) checkRaw(raw [][]byte) (int, error) {
	if len(raw) != c.m {
		return 0, fmt.Errorf("erasure: got %d raw packets, want %d", len(raw), c.m)
	}
	size := len(raw[0])
	for i, p := range raw {
		if len(p) != size {
			return 0, fmt.Errorf("erasure: raw packet %d has %d bytes, want %d", i, len(p), size)
		}
	}
	return size, nil
}

// Encode expands raw into cooked packets. Every raw packet must have the
// same length. The returned packets share one backing arena; the first m
// are copies of the raw packets (systematic property). Production cooks
// row by row (EncodeParityRowInto); Encode is the whole-generation reference
// the tests and drivers cook with.
func (c *Coder) Encode(raw [][]byte) ([][]byte, error) {
	size, err := c.checkRaw(raw)
	if err != nil {
		return nil, err
	}
	cooked := allocPackets(c.n, size)
	// The top m×m block of the systematic dispersal matrix is the
	// identity, so the clear-text prefix is a straight copy.
	for i := 0; i < c.m; i++ {
		copy(cooked[i], raw[i])
	}
	for i := c.m; i < c.n; i++ {
		gf256.MulAddRows(c.dispersal.Row(i), cooked[i], raw)
	}
	return cooked, nil
}

// EncodeParityRow computes a single redundancy packet — cooked index
// m+row — into a fresh slice, without touching the rest of the parity
// tail. It is EncodeParityRowInto for callers without a buffer of their
// own; the server cooks into its frame blocks instead.
func (c *Coder) EncodeParityRow(raw [][]byte, row int) ([]byte, error) {
	size, err := c.checkRaw(raw)
	if err != nil {
		return nil, err
	}
	out := make([]byte, size)
	if err := c.EncodeParityRowInto(out, raw, row); err != nil {
		return nil, err
	}
	return out, nil
}

// EncodeParityRowInto computes redundancy packet m+row over dst, which
// must be one raw packet long and alias none of raw. It backs
// core.Plan.CookBlock, which encodes each parity row of a frame block
// straight into its slot: serving a run of redundancy frames costs one
// row of GF(2^8) work a frame and no buffer of its own.
func (c *Coder) EncodeParityRowInto(dst []byte, raw [][]byte, row int) error {
	size, err := c.checkRaw(raw)
	if err != nil {
		return err
	}
	if row < 0 || row >= c.n-c.m {
		return fmt.Errorf("erasure: parity row %d outside [0, %d)", row, c.n-c.m)
	}
	if len(dst) != size {
		return fmt.Errorf("erasure: parity row buffer has %d bytes, want %d", len(dst), size)
	}
	clear(dst)
	gf256.MulAddRows(c.dispersal.Row(c.m+row), dst, raw)
	codecMetrics.parityRows.Add(1)
	return nil
}

// Received is one intact cooked packet tagged with its index in the cooked
// sequence (0-based). Corrupted packets must simply not be presented.
type Received struct {
	Index int
	Data  []byte
}

// Decode reconstructs the m raw packets from any m (or more) intact cooked
// packets, through one Decoder. Clear-text packets (index < m) go in
// first because they require no matrix work — the "saving recovering
// effort" property of the systematic construction — and redundant ones in
// input order fill in only the e raw packets that are missing: an e×e
// system, not the m×m one. Extra packets beyond m are ignored. The
// returned packets share one backing arena and do not alias the received
// data.
func (c *Coder) Decode(received []Received) ([][]byte, error) {
	if len(received) < c.m {
		return nil, fmt.Errorf("%w: have %d, need %d", ErrShortSet, len(received), c.m)
	}
	var seen [MaxCooked]bool
	for _, r := range received {
		if r.Index < 0 || r.Index >= c.n {
			return nil, fmt.Errorf("erasure: cooked index %d out of [0, %d)", r.Index, c.n)
		}
		if seen[r.Index] {
			return nil, fmt.Errorf("%w: index %d", ErrDuplicateIndex, r.Index)
		}
		seen[r.Index] = true
	}
	size := len(received[0].Data)
	d := c.NewDecoder(size)
	for _, clear := range []bool{true, false} {
		for _, r := range received {
			if (r.Index < c.m) == clear {
				if _, err := d.Add(r.Index, r.Data); err != nil {
					return nil, err
				}
			}
		}
	}
	held, err := d.Raw()
	if err != nil {
		return nil, err
	}
	raw := allocPackets(c.m, size)
	for i, s := range held {
		copy(raw[i], s)
	}
	return raw, nil
}

// PacketsFor returns the number of raw packets M = ceil(docSize/packetSize),
// the ⌈sD/sp⌉ of §4.2.
func PacketsFor(docSize, packetSize int) int {
	if packetSize <= 0 {
		panic("erasure: non-positive packet size")
	}
	if docSize <= 0 {
		return 1
	}
	return (docSize + packetSize - 1) / packetSize
}
