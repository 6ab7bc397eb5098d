package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"mobweb/internal/core"
)

// The control record: every control message, a Request up or a Response
// down, is one binary record on the connection it shares with the frames.
//
//	uvarint size         the bytes that follow, 1..MaxControlLine
//	kind byte            a request's op (kindSearch..kindMore), kindOp, or kindResponse
//	[kindOp] string      the name of an op that has no kind byte
//	uvarint fields       one bit per non-zero field (reqGen.., respOK..)
//	the present fields   in the order appendRequest / appendResponse write them
//
// A string is its uvarint length and bytes; an int is the uvarint of its
// two's-complement bits, as in core's layout codec, so a negative value
// round-trips; Gamma and a hit's Score are their 8 float64 bits,
// little-endian; Seed is a uvarint; a bool is its bit alone. Have and
// DoneGens are ascending lists: a uvarint count, the first value as an
// int, then each value's uvarint distance from the one before. Hits are a
// uvarint count, then each hit's Name, Title and Score. The layout comes
// last and runs to the end of the record: core.Layout.AppendBinary's
// bytes, raw.
//
// No kind byte is '{' or '"', so a JSON line — whose '{' reads as a size
// — fails at its second byte: the client gets ErrBadResponse, the server
// drops the connection.

// Record kinds.
const (
	kindSearch byte = iota + 1
	kindFetch
	kindStop
	kindStopGen
	kindMore
	// kindOp carries an op that has no kind byte by name, so that a peer
	// speaking a newer op gets the server's "unknown op" refusal rather
	// than a dropped connection.
	kindOp
	kindResponse byte = 0x10
)

// opKinds names the op each request kind stands for.
var opKinds = [...]string{kindSearch: "search", kindFetch: "fetch", kindStop: "stop", kindStopGen: "stopgen", kindMore: "more"}

// Request field bits.
const (
	reqGen = 1 << iota
	reqFrames
	reqDoc
	reqQuery
	reqLOD
	reqNotion
	reqGamma
	reqCodec
	reqHave
	reqDoneGens
	reqSeed
	reqPrefetch
	reqLimit
	reqFields = reqLimit<<1 - 1
)

// Response field bits.
const (
	respOK = 1 << iota
	respLayout
	respSending
	respReplica
	respCapability
	respError
	respShed
	respRetryAfter
	respDegraded
	respHits
	respFields = respHits<<1 - 1
)

// recordPrefix is the most bytes a size up to MaxControlLine takes as a
// uvarint.
const recordPrefix = 3

// errBadRequest marks a malformed request record; the server drops the
// connection that sent it.
var errBadRequest = errors.New("transport: malformed request")

// WriteRequest writes one request record into w; the caller flushes.
func WriteRequest(w *bufio.Writer, req Request) error {
	_, err := writeRequest(w, &req)
	return err
}

// writeRequest is WriteRequest returning the record's bytes on the wire.
// The record is built in w's own free buffer, as WriteFrame builds its
// prefix, so one that fits there costs no allocation.
func writeRequest(w *bufio.Writer, req *Request) (int, error) {
	rec, err := recordBuffer(w)
	if err != nil {
		return 0, err
	}
	if rec, err = appendRequest(rec, req); err != nil {
		return 0, err
	}
	return writeRecord(w, rec)
}

// writeResponse writes one response record and returns its bytes on the
// wire; like writeRequest it builds the record in w's buffer. The caller
// flushes.
func writeResponse(w *bufio.Writer, resp *Response) (int, error) {
	rec, err := recordBuffer(w)
	if err != nil {
		return 0, err
	}
	return writeRecord(w, appendResponse(rec, resp))
}

// recordBuffer returns w's free buffer with the length prefix's room
// reserved at its front.
func recordBuffer(w *bufio.Writer) ([]byte, error) {
	if w.Available() <= recordPrefix {
		if err := w.Flush(); err != nil {
			return nil, err
		}
	}
	return w.AvailableBuffer()[:recordPrefix], nil
}

// writeRecord writes the record whose body follows recordBuffer's
// reservation in rec, its size put right in front of it.
func writeRecord(w *bufio.Writer, rec []byte) (int, error) {
	size := len(rec) - recordPrefix
	if size > MaxControlLine {
		return 0, fmt.Errorf("transport: control record of %d bytes exceeds %d", size, MaxControlLine)
	}
	var prefix [recordPrefix]byte
	n := binary.PutUvarint(prefix[:], uint64(size))
	start := recordPrefix - n
	copy(rec[start:], prefix[:n])
	return w.Write(rec[start:])
}

// appendRequest appends req's record body to b. It fails only on a Have
// or DoneGens list that is not ascending.
func appendRequest(b []byte, req *Request) ([]byte, error) {
	kind := kindOp
	for k, op := range opKinds {
		if op != "" && op == req.Op {
			kind = byte(k)
		}
	}
	b = append(b, kind)
	if kind == kindOp {
		b = appendString(b, req.Op)
	}
	bits := bit(req.Gen != 0, reqGen) | bit(req.Frames != 0, reqFrames) | bit(req.Doc != "", reqDoc) |
		bit(req.Query != "", reqQuery) | bit(req.LOD != "", reqLOD) | bit(req.Notion != "", reqNotion) |
		bit(req.Gamma != 0, reqGamma) | bit(req.Codec != "", reqCodec) | bit(len(req.Have) > 0, reqHave) |
		bit(len(req.DoneGens) > 0, reqDoneGens) | bit(req.Seed != 0, reqSeed) | bit(req.Prefetch, reqPrefetch) |
		bit(req.Limit != 0, reqLimit)
	b = binary.AppendUvarint(b, bits)
	if bits&reqGen != 0 {
		b = appendInt(b, req.Gen)
	}
	if bits&reqFrames != 0 {
		b = appendInt(b, req.Frames)
	}
	if bits&reqDoc != 0 {
		b = appendString(b, req.Doc)
	}
	if bits&reqQuery != 0 {
		b = appendString(b, req.Query)
	}
	if bits&reqLOD != 0 {
		b = appendString(b, req.LOD)
	}
	if bits&reqNotion != 0 {
		b = appendString(b, req.Notion)
	}
	if bits&reqGamma != 0 {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(req.Gamma))
	}
	if bits&reqCodec != 0 {
		b = appendString(b, req.Codec)
	}
	var err error
	if bits&reqHave != 0 {
		if b, err = appendAscending(b, req.Have, "Have"); err != nil {
			return b, err
		}
	}
	if bits&reqDoneGens != 0 {
		if b, err = appendAscending(b, req.DoneGens, "DoneGens"); err != nil {
			return b, err
		}
	}
	if bits&reqSeed != 0 {
		b = binary.AppendUvarint(b, req.Seed)
	}
	if bits&reqLimit != 0 {
		b = appendInt(b, req.Limit)
	}
	return b, nil
}

// appendResponse appends resp's record body to b. The layout goes last:
// resp.layoutBin when the server holds the encoding already, Layout's own
// encoding otherwise.
func appendResponse(b []byte, resp *Response) []byte {
	bits := bit(resp.OK, respOK) | bit(resp.Layout != nil, respLayout) | bit(resp.Sending != 0, respSending) |
		bit(resp.Replica != "", respReplica) | bit(resp.Capability != "", respCapability) |
		bit(resp.Error != "", respError) | bit(resp.Shed, respShed) | bit(resp.RetryAfterMS != 0, respRetryAfter) |
		bit(resp.Degraded, respDegraded) | bit(len(resp.Hits) > 0, respHits)
	b = binary.AppendUvarint(append(b, kindResponse), bits)
	if bits&respSending != 0 {
		b = appendInt(b, resp.Sending)
	}
	if bits&respReplica != 0 {
		b = appendString(b, resp.Replica)
	}
	if bits&respCapability != 0 {
		b = appendString(b, resp.Capability)
	}
	if bits&respError != 0 {
		b = appendString(b, resp.Error)
	}
	if bits&respRetryAfter != 0 {
		b = appendInt(b, resp.RetryAfterMS)
	}
	if bits&respHits != 0 {
		b = binary.AppendUvarint(b, uint64(len(resp.Hits)))
		for _, h := range resp.Hits {
			b = appendString(appendString(b, h.Name), h.Title)
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(h.Score))
		}
	}
	if bits&respLayout != 0 {
		if resp.layoutBin != nil {
			b = append(b, resp.layoutBin...)
		} else {
			b, _ = resp.Layout.AppendBinary(b) // never fails
		}
	}
	return b
}

// bit is b when the field it stands for is set.
func bit(set bool, b uint64) uint64 {
	if set {
		return b
	}
	return 0
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// appendInt writes v as the uvarint of its two's-complement bits.
func appendInt(b []byte, v int) []byte {
	return binary.AppendUvarint(b, uint64(int64(v)))
}

// appendAscending writes an ascending list as its count, its first value
// and the distances between neighbours.
func appendAscending(b []byte, vals []int, name string) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(len(vals)))
	for i, v := range vals {
		if i == 0 {
			b = appendInt(b, v)
			continue
		}
		if v < vals[i-1] {
			return b, fmt.Errorf("transport: %s list descends at index %d", name, i)
		}
		b = binary.AppendUvarint(b, uint64(v)-uint64(vals[i-1]))
	}
	return b, nil
}

// readRequest reads one request record and returns its bytes on the
// wire. Its errors are ReadResponse's, except that a malformed request is
// not an ErrBadResponse.
func readRequest(r *bufio.Reader) (Request, int, error) {
	d, n, err := readRecord(r, errBadRequest, isRequestKind)
	if err != nil {
		return Request{}, n, err
	}
	var req Request
	d.request(&req)
	if err := d.end(r, errBadRequest); err != nil {
		return Request{}, n, err
	}
	return req, n, nil
}

// ReadResponse reads one response record. A record is bounded by
// MaxControlLine: a size past it is ErrBadResponse, refused before any of
// its body is read, and so is a record of another kind — a JSON line
// among them — or one whose fields do not parse or leave bytes over. A
// connection that ends inside a record is io.ErrUnexpectedEOF, one that
// ends before it io.EOF.
func ReadResponse(r *bufio.Reader) (Response, error) {
	resp, _, err := readResponse(r)
	return resp, err
}

// readResponse is ReadResponse returning the record's bytes on the wire.
func readResponse(r *bufio.Reader) (Response, int, error) {
	d, n, err := readRecord(r, ErrBadResponse, isResponseKind)
	if err != nil {
		return Response{}, n, err
	}
	var resp Response
	d.response(&resp)
	if err := d.end(r, ErrBadResponse); err != nil {
		return Response{}, n, err
	}
	return resp, n, nil
}

func isRequestKind(k byte) bool  { return k >= kindSearch && k <= kindOp }
func isResponseKind(k byte) bool { return k == kindResponse }

// readRecord reads one record's size and kind byte, refusing as bad a
// size outside [1, MaxControlLine] or a kind isKind does not accept, and
// returns a decoder over its body with the record's bytes on the wire. A
// body that fits in r's buffer is decoded in place, without a copy: the
// decoder copies out what it keeps, and its end releases the body.
func readRecord(r *bufio.Reader, bad error, isKind func(byte) bool) (recordDecoder, int, error) {
	size, n := 0, 0
	for shift := 0; ; shift += 7 {
		c, err := r.ReadByte()
		if err != nil {
			return recordDecoder{}, n, eofInside(err, n > 0)
		}
		n++
		size |= int(c&0x7f) << shift
		if c < 0x80 {
			break
		}
		if n == recordPrefix {
			return recordDecoder{}, n, fmt.Errorf("%w: control record size prefix runs past %d bytes", bad, recordPrefix)
		}
	}
	if size == 0 || size > MaxControlLine {
		return recordDecoder{}, n, fmt.Errorf("%w: control record of %d bytes outside [1, %d]", bad, size, MaxControlLine)
	}
	kind, err := r.Peek(1)
	if err != nil {
		return recordDecoder{}, n, eofInside(err, true)
	}
	if !isKind(kind[0]) {
		return recordDecoder{}, n, fmt.Errorf("%w: control record kind %#x", bad, kind[0])
	}
	if size <= r.Size() {
		body, err := r.Peek(size)
		if err != nil {
			return recordDecoder{}, n, eofInside(err, true)
		}
		return recordDecoder{data: body, peeked: true}, n + size, nil
	}
	body := make([]byte, size)
	if _, err := io.ReadFull(r, body); err != nil {
		return recordDecoder{}, n, eofInside(err, true)
	}
	return recordDecoder{data: body}, n + size, nil
}

// eofInside maps io.EOF to io.ErrUnexpectedEOF once part of a record was
// read.
func eofInside(err error, inside bool) error {
	if inside && errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

var errRecordTruncated = errors.New("control record truncated")

// recordDecoder reads one record body front to back. The first failure
// sticks and every later read returns zero. Strings are substrings of one
// copy of the body, made at the first string read: a record without any
// decodes without allocating.
type recordDecoder struct {
	data   []byte
	peeked bool // data is still in the reader's buffer
	text   string
	off    int
	err    error
}

// end releases an in-place body and reports the decode's outcome as a
// bad error: its first failure, or bytes the fields left over.
func (d *recordDecoder) end(r *bufio.Reader, bad error) error {
	if d.peeked {
		r.Discard(len(d.data))
	}
	if d.err == nil && d.off != len(d.data) {
		d.err = fmt.Errorf("%d trailing bytes", len(d.data)-d.off)
	}
	if d.err != nil {
		return fmt.Errorf("%w: %v", bad, d.err)
	}
	return nil
}

func (d *recordDecoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.off = len(d.data)
}

func (d *recordDecoder) byte() byte {
	if d.off >= len(d.data) {
		d.fail(errRecordTruncated)
		return 0
	}
	d.off++
	return d.data[d.off-1]
}

func (d *recordDecoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.fail(errRecordTruncated)
		return 0
	}
	d.off += n
	return v
}

func (d *recordDecoder) fixed64() uint64 {
	if len(d.data)-d.off < 8 {
		d.fail(errRecordTruncated)
		return 0
	}
	d.off += 8
	return binary.LittleEndian.Uint64(d.data[d.off-8:])
}

// narrow converts a decoded value to int, failing where int is 32 bits
// and the value needs more.
func (d *recordDecoder) narrow(v int64) int {
	if int64(int(v)) != v {
		d.fail(fmt.Errorf("value %d overflows int", v))
		return 0
	}
	return int(v)
}

// int is the inverse of appendInt.
func (d *recordDecoder) int() int { return d.narrow(int64(d.uvarint())) }

// count reads an element or byte count and refuses one the rest of the
// body cannot hold at minBytes apiece, before anything is allocated.
func (d *recordDecoder) count(minBytes int) int {
	v := d.uvarint()
	if v > uint64((len(d.data)-d.off)/minBytes) {
		d.fail(fmt.Errorf("count %d exceeds the %d bytes left", v, len(d.data)-d.off))
		return 0
	}
	return int(v)
}

// rest returns the body from the read position on as a string and
// consumes it.
func (d *recordDecoder) rest() string {
	if d.text == "" {
		d.text = string(d.data)
	}
	s := d.text[d.off:]
	d.off = len(d.data)
	return s
}

func (d *recordDecoder) str() string {
	n := d.count(1)
	if n == 0 {
		return ""
	}
	if d.text == "" {
		d.text = string(d.data)
	}
	d.off += n
	return d.text[d.off-n : d.off]
}

func (d *recordDecoder) float() float64 { return math.Float64frombits(d.fixed64()) }

// fields reads the field bits and refuses a bit outside known.
func (d *recordDecoder) fields(known uint64) uint64 {
	bits := d.uvarint()
	if bits&^known != 0 {
		d.fail(fmt.Errorf("unknown field bits %#x", bits&^known))
		return 0
	}
	return bits
}

// ascending is the inverse of appendAscending; a list that would descend
// (a distance that wraps) fails.
func (d *recordDecoder) ascending() []int {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	v := d.uvarint()
	out[0] = d.narrow(int64(v))
	for i := 1; i < n && d.err == nil; i++ {
		next := v + d.uvarint()
		if int64(next) < int64(v) {
			d.fail(fmt.Errorf("list descends at index %d", i))
			break
		}
		v = next
		out[i] = d.narrow(int64(v))
	}
	return out
}

// request decodes a request record body into req.
func (d *recordDecoder) request(req *Request) {
	kind := d.byte()
	if kind == kindOp {
		req.Op = d.str()
	} else if int(kind) < len(opKinds) {
		req.Op = opKinds[kind]
	}
	bits := d.fields(reqFields)
	if bits&reqGen != 0 {
		req.Gen = d.int()
	}
	if bits&reqFrames != 0 {
		req.Frames = d.int()
	}
	if bits&reqDoc != 0 {
		req.Doc = d.str()
	}
	if bits&reqQuery != 0 {
		req.Query = d.str()
	}
	if bits&reqLOD != 0 {
		req.LOD = d.str()
	}
	if bits&reqNotion != 0 {
		req.Notion = d.str()
	}
	if bits&reqGamma != 0 {
		req.Gamma = d.float()
	}
	if bits&reqCodec != 0 {
		req.Codec = d.str()
	}
	if bits&reqHave != 0 {
		req.Have = d.ascending()
	}
	if bits&reqDoneGens != 0 {
		req.DoneGens = d.ascending()
	}
	if bits&reqSeed != 0 {
		req.Seed = d.uvarint()
	}
	req.Prefetch = bits&reqPrefetch != 0
	if bits&reqLimit != 0 {
		req.Limit = d.int()
	}
}

// response decodes a response record body into resp.
func (d *recordDecoder) response(resp *Response) {
	d.byte() // the kind, which readRecord checked
	bits := d.fields(respFields)
	resp.OK = bits&respOK != 0
	if bits&respSending != 0 {
		resp.Sending = d.int()
	}
	if bits&respReplica != 0 {
		resp.Replica = d.str()
	}
	if bits&respCapability != 0 {
		resp.Capability = d.str()
	}
	if bits&respError != 0 {
		resp.Error = d.str()
	}
	resp.Shed = bits&respShed != 0
	if bits&respRetryAfter != 0 {
		resp.RetryAfterMS = d.int()
	}
	resp.Degraded = bits&respDegraded != 0
	if bits&respHits != 0 {
		if n := d.count(1 + 1 + 8); n > 0 {
			resp.Hits = make([]HitSummary, n)
			for i := range resp.Hits {
				resp.Hits[i] = HitSummary{Name: d.str(), Title: d.str(), Score: d.float()}
			}
		}
	}
	if bits&respLayout != 0 && d.err == nil {
		lo := new(core.Layout)
		if err := lo.UnmarshalBinaryString(d.rest()); err != nil {
			d.fail(err)
			return
		}
		resp.Layout = lo
	}
}
