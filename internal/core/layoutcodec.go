package core

import (
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"mobweb/internal/document"
	"mobweb/internal/erasure"
)

// The binary layout encoding — the one serialized form of a Layout, on the
// wire (base64 inside the response line), in the packet store (raw) and
// through the front (decoded and re-encoded). DESIGN.md §19 has the table:
//
//	version byte (layoutVersion)
//	uvarint PacketSize, uvarint BodySize, codec byte, uvarint Seed
//	uvarint len(Shapes), then per shape: uvarint M, uvarint N
//	uvarint len(Ranked), then per segment (below)
//	uvarint len(Accrual), then per segment
//
//	segment: uvarint len + bytes of Label, the same of Title, varint Level,
//	Score as its 8 float64 bits (little-endian), varint PermutedOff and
//	varint OrigOff each as the distance from where the previous segment of
//	the list ended on that axis (offset + Length; 0 before the first),
//	uvarint Length
//
// Both lists of a plan tile the permuted stream in order, so every
// PermutedOff distance is 0, and OrigOff distances are 0 wherever
// transmission order follows document order: one byte where a decimal
// offset cost five. Scores stay eight bytes: the receiver sums them into
// InfoContent, and float32 or rank-derived scores would move every sum.
// Content scores are bit-reproducible per document and query, so two
// replicas of one corpus send the same bytes; no golden file carries
// these scores, TestPlanLayoutsReproducibleAcrossEngines pins them.
//
// The codec is a faithful carrier, not a judge: every int field
// round-trips, including the negative and wrapping values only a hostile
// peer sends, and Layout.Validate stays the one place that refuses them.
// What the decoder itself refuses is what it cannot frame: an unknown
// version, a count larger than the bytes behind it could hold, a truncated
// field, trailing bytes, and (on 32-bit hosts) a value an int cannot hold.
const layoutVersion = 1

// Smallest encodings of one shape and one segment, which bound how many of
// each the remaining bytes can hold — and so what a hostile count can make
// the decoder allocate.
const (
	minShapeBytes   = 2
	minSegmentBytes = 1 + 1 + 1 + 8 + 1 + 1 + 1
)

// AppendBinary appends the layout's binary encoding to b. It never fails;
// the error is the encoding.BinaryAppender signature.
func (l Layout) AppendBinary(b []byte) ([]byte, error) {
	b = append(b, layoutVersion)
	b = appendInt(b, l.PacketSize)
	b = appendInt(b, l.BodySize)
	b = append(b, byte(l.Codec))
	b = binary.AppendUvarint(b, l.Seed)
	b = appendInt(b, len(l.Shapes))
	for _, s := range l.Shapes {
		b = appendInt(b, s.M)
		b = appendInt(b, s.N)
	}
	b = appendSegments(b, l.Ranked)
	b = appendSegments(b, l.Accrual)
	return b, nil
}

// appendInt writes v as the uvarint of its two's-complement bits, so the
// sizes and counts a real layout holds take one or two bytes and a
// negative one still round-trips for Validate to refuse.
func appendInt(b []byte, v int) []byte {
	return binary.AppendUvarint(b, uint64(int64(v)))
}

func appendSegments(b []byte, segs []SegmentMeta) []byte {
	b = appendInt(b, len(segs))
	var permEnd, origEnd int64 // may wrap for a hostile layout; the decoder wraps back
	for _, seg := range segs {
		b = appendInt(b, len(seg.Label))
		b = append(b, seg.Label...)
		b = appendInt(b, len(seg.Title))
		b = append(b, seg.Title...)
		b = binary.AppendVarint(b, int64(seg.Level))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(seg.Score))
		b = binary.AppendVarint(b, int64(seg.PermutedOff)-permEnd)
		b = binary.AppendVarint(b, int64(seg.OrigOff)-origEnd)
		b = appendInt(b, seg.Length)
		permEnd = int64(seg.PermutedOff) + int64(seg.Length)
		origEnd = int64(seg.OrigOff) + int64(seg.Length)
	}
	return b
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (l Layout) MarshalBinary() ([]byte, error) {
	// About 22 bytes a segment with its label: one allocation for a real
	// layout, append growth for one with long titles.
	return l.AppendBinary(make([]byte, 0, 32+4*len(l.Shapes)+24*(len(l.Ranked)+len(l.Accrual))))
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. It does not
// validate: callers run Validate (NewReceiverFromLayout, Rebase and
// store.Layout do) before trusting any field. On error l is unchanged.
func (l *Layout) UnmarshalBinary(data []byte) error {
	// One copy of the input backs every label and title, so a layout
	// decodes in four allocations however many segments it lists.
	d := layoutDecoder{data: data, text: string(data)}
	if v := d.byte(); d.err == nil && v != layoutVersion {
		return fmt.Errorf("core: layout encoding version %d, want %d", v, layoutVersion)
	}
	var out Layout
	out.PacketSize = d.int()
	out.BodySize = d.int()
	out.Codec = erasure.CodecID(d.byte())
	out.Seed = d.uvarint()
	if n := d.count(minShapeBytes); n > 0 {
		out.Shapes = make([]GenerationShape, n)
		for i := range out.Shapes {
			out.Shapes[i] = GenerationShape{M: d.int(), N: d.int()}
		}
	}
	out.Ranked = d.segments()
	out.Accrual = d.segments()
	if d.err == nil && d.off != len(d.data) {
		d.err = fmt.Errorf("core: layout encoding has %d trailing bytes", len(d.data)-d.off)
	}
	if d.err != nil {
		return d.err
	}
	*l = out
	return nil
}

// MarshalText implements encoding.TextMarshaler as base64 of the binary
// form, which is how encoding/json carries a Layout: one string member,
// no reflection over segments.
func (l Layout) MarshalText() ([]byte, error) {
	bin, err := l.MarshalBinary()
	if err != nil {
		return nil, err
	}
	text := make([]byte, base64.StdEncoding.EncodedLen(len(bin)))
	base64.StdEncoding.Encode(text, bin)
	return text, nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (l *Layout) UnmarshalText(text []byte) error {
	bin := make([]byte, base64.StdEncoding.DecodedLen(len(text)))
	n, err := base64.StdEncoding.Decode(bin, text)
	if err != nil {
		return fmt.Errorf("core: layout encoding: %w", err)
	}
	return l.UnmarshalBinary(bin[:n])
}

var errLayoutTruncated = errors.New("core: layout encoding truncated")

// layoutDecoder reads the binary encoding front to back. The first
// failure sticks and every later read returns zero, so UnmarshalBinary
// checks err once at the end.
type layoutDecoder struct {
	data []byte
	text string // data as a string: labels and titles are substrings of it
	off  int
	err  error
}

func (d *layoutDecoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.off = len(d.data)
}

func (d *layoutDecoder) byte() byte {
	if d.off >= len(d.data) {
		d.fail(errLayoutTruncated)
		return 0
	}
	v := d.data[d.off]
	d.off++
	return v
}

func (d *layoutDecoder) fixed64() uint64 {
	if len(d.data)-d.off < 8 {
		d.fail(errLayoutTruncated)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.data[d.off:])
	d.off += 8
	return v
}

func (d *layoutDecoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.fail(errLayoutTruncated)
		return 0
	}
	d.off += n
	return v
}

func (d *layoutDecoder) varint() int64 {
	v, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		d.fail(errLayoutTruncated)
		return 0
	}
	d.off += n
	return v
}

// narrow converts a decoded value to int, failing where int is 32 bits
// and the value needs more.
func (d *layoutDecoder) narrow(v int64) int {
	if int64(int(v)) != v {
		d.fail(fmt.Errorf("core: layout encoding value %d overflows int", v))
		return 0
	}
	return int(v)
}

// int is the inverse of appendInt.
func (d *layoutDecoder) int() int { return d.narrow(int64(d.uvarint())) }

// count reads an element or byte count and refuses one the remaining
// input cannot hold at minBytes apiece, before anything is allocated.
func (d *layoutDecoder) count(minBytes int) int {
	v := d.uvarint()
	if v > uint64((len(d.data)-d.off)/minBytes) {
		d.fail(fmt.Errorf("core: layout encoding count %d exceeds the %d bytes left", v, len(d.data)-d.off))
		return 0
	}
	return int(v)
}

func (d *layoutDecoder) str() string {
	n := d.count(1)
	s := d.text[d.off : d.off+n]
	d.off += n
	return s
}

func (d *layoutDecoder) segments() []SegmentMeta {
	n := d.count(minSegmentBytes)
	if n == 0 {
		return nil
	}
	segs := make([]SegmentMeta, n)
	var permEnd, origEnd int64
	for i := range segs {
		seg := &segs[i]
		seg.Label = d.str()
		seg.Title = d.str()
		seg.Level = document.LOD(d.narrow(d.varint()))
		seg.Score = math.Float64frombits(d.fixed64())
		perm, orig := permEnd+d.varint(), origEnd+d.varint()
		seg.PermutedOff, seg.OrigOff = d.narrow(perm), d.narrow(orig)
		seg.Length = d.int()
		permEnd, origEnd = perm+int64(seg.Length), orig+int64(seg.Length)
	}
	return segs
}
