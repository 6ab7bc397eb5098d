// Package transport realizes the paper's prototype architecture
// (Figure 1) over TCP with Go's standard library: a server combining the
// database gateway (document collection + structural characteristics) and
// the document transmitter, and a client combining the sequence manager
// (packet bookkeeping, CRC verification, reconstruction) and the
// rendering manager (progressive unit display). The CORBA object request
// broker of the original prototype is replaced by binary control records
// (control.go) plus length-prefixed binary packet frames on one
// connection. A request, the stop, stopgen and more feedback, and the
// response header are each one varint record; the one large control
// message, the fetch response's layout, rides its record raw, as
// core.Layout's versioned varint encoding (DESIGN.md §19).
//
// The protocol supports the paper's full §4.2 loop: QIC-ordered
// fault-tolerant streaming, client stop ("the user has determined that
// the document is irrelevant"), and selective retransmission rounds in
// which the client reports the cooked packets it already caches.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"mobweb/internal/core"
	"mobweb/internal/erasure"
)

// Protocol limits.
const (
	// MaxFrameSize bounds a single packet frame on the wire, guarding
	// the length-prefixed reader against corrupt prefixes.
	MaxFrameSize = 1 << 16
	// MaxControlLine bounds one control record, its size prefix not
	// counted.
	MaxControlLine = 1 << 20
)

// Errors surfaced to protocol users.
var (
	// ErrServerClosed is returned by Serve after Close.
	ErrServerClosed = errors.New("transport: server closed")
	// ErrBadResponse signals a malformed server reply.
	ErrBadResponse = errors.New("transport: malformed response")
	// ErrDisconnected marks a fetch that lost its connection and could
	// not re-establish it (reconnection disabled, or every redial
	// attempt failed). The partial FetchResult is still returned.
	ErrDisconnected = errors.New("transport: disconnected")
	// ErrRoundsExhausted marks a fetch that spent its MaxRounds budget
	// without reaching a §4.2 termination condition. The partial
	// FetchResult is still returned.
	ErrRoundsExhausted = errors.New("transport: retransmission rounds exhausted")
	// ErrShed marks a fetch refused by admission control (server or front
	// tier over budget). Match with errors.Is; the concrete *ShedError
	// carries the retry-after hint.
	ErrShed = errors.New("transport: fetch shed")
	// ErrDegraded marks a request refused by the serving replica's
	// capability tier (e.g. a prefetch against a fetch-degraded replica,
	// or any fetch against a search-only one). The fallback tree, not a
	// retry, is the recovery path.
	ErrDegraded = errors.New("transport: capability degraded")
	// ErrReroute marks a proxied stream the front tier could not finish on
	// any replica despite re-routing; the client's own redial/resume path
	// takes over from here.
	ErrReroute = errors.New("transport: reroute failed")
)

// ShedError is the typed admission-control refusal: the peer is over its
// fetch budget and hints when to retry. It unwraps to ErrShed.
type ShedError struct {
	// RetryAfter is the peer's backoff hint; zero means "unspecified".
	RetryAfter time.Duration
}

// Error implements error.
func (e *ShedError) Error() string {
	if e.RetryAfter <= 0 {
		return "transport: fetch shed by admission control"
	}
	return fmt.Sprintf("transport: fetch shed by admission control (retry after %v)", e.RetryAfter)
}

// Unwrap makes errors.Is(err, ErrShed) hold.
func (e *ShedError) Unwrap() error { return ErrShed }

// Request is a client→server control message.
type Request struct {
	// Op is "search", "fetch", "stop", "stopgen" or "more". A stopgen
	// arrives mid-stream on a fountain fetch and tells the transmitter to
	// stop sending packets of generation Gen — the client decoded it; the
	// stream keeps flowing for the rest. A more arrives mid-stream on a
	// metered fountain stream (Response.Window) and grants the transmitter
	// Frames more frames on the wire.
	Op string `json:"op"`
	// Query is the keyword query (search: the search string; fetch: the
	// query whose QIC orders units).
	Query string `json:"query,omitempty"`
	// Limit caps search results.
	Limit int `json:"limit,omitempty"`
	// Doc names the document to fetch.
	Doc string `json:"doc,omitempty"`
	// LOD is the ranking level of detail name (document.LOD.String()).
	LOD string `json:"lod,omitempty"`
	// Notion is "IC", "QIC" or "MQIC".
	Notion string `json:"notion,omitempty"`
	// Gamma is the redundancy ratio; zero uses the server default.
	Gamma float64 `json:"gamma,omitempty"`
	// Have lists the wire sequence numbers the client already holds
	// intact — cooked offsets under the fixed-rate codec, packed
	// (gen, seq) pairs under fountain (core.Layout.WireSeq) — so the
	// server transmits only the rest (retransmission rounds with
	// caching).
	Have []int `json:"have,omitempty"`
	// DoneGens lists generations the client can already reconstruct
	// (decoded in a previous round, or restored from a persistent store
	// after a restart), so the server spends no air time on any of their
	// packets — including parity rows the Have list alone would not
	// cover. On a fountain stream each listed generation is stopped
	// before the first frame, exactly as if a stopgen had arrived.
	DoneGens []int `json:"done_gens,omitempty"`
	// Seed is the seed (Layout.Seed, the content digest) of the layout
	// whose packets Have and DoneGens name. The server honours both only
	// when it equals its own plan's digest, and otherwise streams as for
	// a cold fetch: a document edited since the client stored its packets
	// owes the client every packet.
	Seed uint64 `json:"seed,omitempty"`
	// Prefetch marks the stream as idle-time prefetch traffic, which a
	// capability-degraded replica refuses before it refuses anything
	// else.
	Prefetch bool `json:"prefetch,omitempty"`
	// Codec selects the erasure codec ("vandermonde" or "fountain");
	// empty uses the server default, and the layout in the response names
	// the codec served.
	Codec string `json:"codec,omitempty"`
	// Gen is the generation a stopgen refers to.
	Gen int `json:"gen,omitempty"`
	// Frames is the credit a more grants, at least one frame.
	Frames int `json:"frames,omitempty"`
}

// HitSummary is one search result on the wire.
type HitSummary struct {
	Name  string  `json:"name"`
	Title string  `json:"title"`
	Score float64 `json:"score"`
}

// Response is a server→client control message, sent before any packet
// stream.
type Response struct {
	OK    bool         `json:"ok"`
	Error string       `json:"error,omitempty"`
	Hits  []HitSummary `json:"hits,omitempty"`
	// Layout carries the transmission geometry for fetch responses: its
	// binary encoding, raw, at the end of the response record (as JSON, a
	// base64 string: the type marshals itself as text).
	Layout *core.Layout `json:"layout,omitempty"`
	// Sending is the number of frames that will follow a fixed-rate
	// header. On a fountain header it is the stream's first credit window
	// (Window): the frames a fixed-rate round of the same γ would send,
	// after which the transmitter sends only what the client grants; on a
	// clear-prefix tier it is every frame the stream sends. Zero leaves a
	// fountain stream unmetered.
	Sending int `json:"sending,omitempty"`
	// Shed marks an admission-control refusal (OK is false); RetryAfterMS
	// hints when the client should try again.
	Shed         bool `json:"shed,omitempty"`
	RetryAfterMS int  `json:"retry_after_ms,omitempty"`
	// Degraded marks a capability refusal (OK is false): the replica is
	// up but its current tier does not serve this request.
	Degraded bool `json:"degraded,omitempty"`
	// Replica names the serving replica and Capability its tier, so
	// clients (and the front tier's aggregation) see who served them and
	// at what degradation level. Empty means "unnamed" / "full".
	Replica    string `json:"replica,omitempty"`
	Capability string `json:"capability,omitempty"`
	// layoutBin is Layout's encoding when the server holds it already
	// (planner.Resolved.LayoutBinary); nil encodes Layout on the write.
	layoutBin []byte
}

// Window is the credit window the header opens: Sending on a fountain
// header, zero — unmetered — on any other. Both ends of a stream, and a
// front relaying it, read it from the header the same way.
func (r Response) Window() int {
	if r.Layout == nil || r.Layout.Codec != erasure.CodecFountain {
		return 0
	}
	return r.Sending
}

// frameHeader is the length prefix ahead of every frame: a big-endian
// uint32, zero for the end-of-stream marker.
const frameHeader = 4

// WriteFrame writes one length-prefixed packet frame. Framing runs inside
// the connection's buffers — the prefix is appended in w's own buffer, and
// ReadFrameInto peeks it in the reader's — so a frame costs no allocation.
func WriteFrame(w *bufio.Writer, frame []byte) error {
	if len(frame) == 0 || len(frame) > MaxFrameSize {
		return fmt.Errorf("transport: frame size %d outside (0, %d]", len(frame), MaxFrameSize)
	}
	if err := writeHeader(w, uint32(len(frame))); err != nil {
		return err
	}
	_, err := w.Write(frame)
	return err
}

// WriteEndOfStream writes the zero-length terminator.
func WriteEndOfStream(w *bufio.Writer) error {
	return writeHeader(w, 0)
}

// writeHeader appends a length prefix in w's buffer.
func writeHeader(w *bufio.Writer, n uint32) error {
	if w.Available() < frameHeader {
		if err := w.Flush(); err != nil {
			return err
		}
	}
	_, err := w.Write(binary.BigEndian.AppendUint32(w.AvailableBuffer(), n))
	return err
}

// frameBuffered reports whether r's buffer already holds the whole next
// frame, or the end-of-stream marker, so reading it touches no socket.
func frameBuffered(r *bufio.Reader) bool {
	if r.Buffered() < frameHeader {
		return false
	}
	hdr, _ := r.Peek(frameHeader) // buffered already: cannot fail
	return r.Buffered()-frameHeader >= int(binary.BigEndian.Uint32(hdr))
}

// ReadFrame reads one length-prefixed frame; it returns (nil, nil) at the
// end-of-stream marker.
func ReadFrame(r *bufio.Reader) ([]byte, error) {
	return ReadFrameInto(r, nil)
}

// ReadFrameInto is ReadFrame with buffer reuse: the frame is read into
// buf when it has the capacity, so a receive loop that hands each frame
// to the sequence manager (which copies what it keeps) allocates only on
// growth. It returns (nil, nil) at the end-of-stream marker. Its errors
// are io.ReadFull's: io.EOF at a frame boundary or right after a prefix,
// io.ErrUnexpectedEOF inside either.
func ReadFrameInto(r *bufio.Reader, buf []byte) ([]byte, error) {
	hdr, err := r.Peek(frameHeader)
	if err != nil {
		if len(hdr) > 0 && errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	r.Discard(frameHeader)
	if n == 0 {
		return nil, nil
	}
	if n > MaxFrameSize {
		return nil, fmt.Errorf("transport: frame size %d exceeds %d", n, MaxFrameSize)
	}
	frame := slices.Grow(buf[:0], int(n))[:n]
	if _, err := io.ReadFull(r, frame); err != nil {
		return nil, err
	}
	return frame, nil
}
