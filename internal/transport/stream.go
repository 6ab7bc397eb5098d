package transport

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net"
	"time"

	"mobweb/internal/core"
	"mobweb/internal/packet"
	"mobweb/internal/planner"
)

// This file is the server's one stream loop (§4.2: send cooked packets in
// order until the client signals stop) and the transmitter's frame sources
// that drive it. A source alone knows which frame comes next, how it waits
// for control requests, what a stopgen means to it and on whose clock its
// frames arrive; the loop alone decides what a mid-stream request is,
// meters a credit-windowed stream, injects channel faults, writes,
// flushes, paces and counts. A retransmission round, a private rateless
// stream, a broadcast subscription and a front's relayed stream
// (shard.relay) are the same loop over different sources.

// Frame is one frame handed from a source to the stream loop. The bytes
// stay the source's — frame-cache and broadcast slices are shared with
// other connections — and are good until the next call to Next: the loop
// only reads them, and copies before a mutating injector sees them.
type Frame struct {
	// Bytes is the wire frame; nil marks the end of the source.
	Bytes []byte
	// Seq is the frame's wire sequence number, the fault injector's key.
	Seq int
}

// FrameSource decides what a fetch stream sends.
type FrameSource interface {
	// Next returns the next frame. It looks at the control channel first,
	// the way the source must — private sources poll it without blocking,
	// a broadcast subscription blocks on it together with its frame queue
	// — and hands back a request it received (Op non-empty) instead of a
	// frame. A closed channel means the connection is gone: io.EOF.
	Next(ctl <-chan Request) (Frame, Request, error)
	// Feedback applies a client's mid-stream stopgen or more. The loop has
	// already charged a more to the stream's window; a source that relays
	// the stream passes both on.
	Feedback(creq Request) error
	// SelfPaced reports that the source's frames arrive on a clock of
	// their own (a broadcast carousel, a relayed stream): the loop must not
	// pace them a second time, and since Next may block until the next one
	// comes, it flushes each frame before asking. A source whose Next never
	// blocks leaves flushing to the write buffer, which flushes when full
	// and when the stream ends.
	SelfPaced() bool
}

// pump is the stream loop: it moves frames from src to w until the source
// ends or the client says stop, and reports how many went on the air.
//
// A positive window meters the stream (Response.Window): the loop puts
// that many frames on the wire, then waits until the client grants more.
// Credit counts frames on the wire, so a frame the injector drops is not
// charged, and client and server count the same frames. conn, when
// non-nil, is the client connection, whose read deadline bounds that
// wait.
func (s *Server) pump(w *bufio.Writer, src FrameSource, requests <-chan Request, injector FaultInjector, window int, conn net.Conn) (int, error) {
	_, cleanChannel := injector.(NopInjector)
	selfPaced := src.SelfPaced()
	delay := s.opts.PacketDelay
	if selfPaced {
		delay = 0
	}
	var scratch []byte // the injector's private copy of the current frame
	sent, credit := 0, window
	for {
		var fr Frame
		var creq Request
		var err error
		if window > 0 && credit == 0 {
			creq, err = s.awaitGrant(w, requests, conn)
		} else {
			fr, creq, err = src.Next(requests)
		}
		if err != nil {
			return sent, err
		}
		// Stream feedback is "stop" (the client reached a §4.2 termination
		// condition), "stopgen" (it decoded one generation) and, on a
		// metered stream, "more" (it grants frames); any other request
		// during a stream is a protocol violation.
		switch creq.Op {
		case "":
		case "stop":
			return sent, nil
		case "more", "stopgen":
			if creq.Op == "more" {
				s.sm.reqMore.Inc()
				if window == 0 || creq.Frames <= 0 {
					return sent, fmt.Errorf("transport: more of %d frames on a stream metered by a window of %d", creq.Frames, window)
				}
				// One grant counts for at most 2³¹ frames, so the credit
				// cannot overflow; the overshoot cap ends the stream long
				// before it runs out.
				credit += min(creq.Frames, math.MaxInt32)
			}
			if err := src.Feedback(creq); err != nil {
				return sent, err
			}
			continue
		default:
			return sent, fmt.Errorf("transport: %q request during stream", creq.Op)
		}
		if fr.Bytes == nil {
			return sent, nil
		}
		out := fr.Bytes
		if !cleanChannel {
			scratch = append(scratch[:0], out...)
			var send bool
			if out, send = injector.Inject(scratch, fr.Seq); !send {
				s.sm.framesDropped.Inc()
				continue
			}
		}
		if err := WriteFrame(w, out); err != nil {
			return sent, err
		}
		sent++
		credit--
		s.sm.framesOut.Inc()
		if selfPaced || delay > 0 {
			if err := w.Flush(); err != nil {
				return sent, err
			}
		}
		if delay > 0 {
			time.Sleep(delay)
		}
	}
}

// awaitGrant is a metered stream's pause once its window is spent. It
// flushes first: a frame left in the buffer is one the client counts as
// owed and waits for, and then neither side would move. A client that
// neither grants nor stops for IdleTimeout is idle, and its connection
// goes the way of any idle one.
func (s *Server) awaitGrant(w *bufio.Writer, requests <-chan Request, conn net.Conn) (Request, error) {
	if err := w.Flush(); err != nil {
		return Request{}, err
	}
	if conn != nil {
		//mobweb:nondet-ok idle-timeout deadline, wall-clock by nature
		if err := conn.SetReadDeadline(time.Now().Add(s.opts.IdleTimeout)); err != nil {
			return Request{}, err
		}
		defer conn.SetReadDeadline(time.Time{})
	}
	creq, ok := <-requests
	if !ok {
		return Request{}, io.EOF
	}
	return creq, nil
}

// PollControl is a private source's look at the control channel: whatever
// is already there, never a wait.
func PollControl(ctl <-chan Request) (Request, error) {
	select {
	case creq, ok := <-ctl:
		if !ok {
			return Request{}, io.EOF
		}
		return creq, nil
	default:
		return Request{}, nil
	}
}

// rowSource is one fixed-rate transmission round: the plan's cooked rows
// in QIC order, minus what the client holds (Have), can already decode
// (DoneGens — parity rows included, which Have alone cannot say), or this
// replica's tier does not serve (parity, when clear-prefix-only).
type rowSource struct {
	resolved *planner.Resolved
	skip     []bool
	seq      int
	// sending is the number of rows the round will put on the air.
	sending int
}

func newRowSource(resolved *planner.Resolved, layout core.Layout, req Request, clearOnly bool) *rowSource {
	r := &rowSource{resolved: resolved, skip: make([]bool, layout.N())}
	for _, seq := range req.Have {
		if seq >= 0 && seq < len(r.skip) {
			r.skip[seq] = true
		}
	}
	for _, g := range req.DoneGens {
		for i := 0; ; i++ {
			seq, ok := layout.WireSeq(g, i)
			if !ok {
				break
			}
			r.skip[seq] = true
		}
	}
	for seq := range r.skip {
		if clearOnly && !layout.IsClear(seq) {
			r.skip[seq] = true
		}
		if !r.skip[seq] {
			r.sending++
		}
	}
	return r
}

func (r *rowSource) Next(ctl <-chan Request) (Frame, Request, error) {
	for r.seq < len(r.skip) && r.skip[r.seq] {
		r.seq++
	}
	if r.seq == len(r.skip) {
		return Frame{}, Request{}, nil
	}
	if creq, err := PollControl(ctl); err != nil || creq.Op != "" {
		return Frame{}, creq, err
	}
	seq := r.seq
	r.seq++
	frame, err := r.resolved.Frame(seq)
	return Frame{Bytes: frame, Seq: seq}, Request{}, err
}

func (r *rowSource) Feedback(creq Request) error {
	return fmt.Errorf("transport: %q request during a fixed-rate stream", creq.Op)
}

func (r *rowSource) SelfPaced() bool { return false }

// fountainOvershootCap bounds the packets a fountain stream sends for
// one generation of M source symbols, whatever the client grants: enough
// for decode at severe loss (4M covers α beyond 0.7), with a floor for
// tiny generations, where a short run of losses is a large share of the
// generation.
func fountainOvershootCap(m int) int {
	if c := 4 * m; c > m+64 {
		return c
	}
	return m + 64
}

// genStops is a rateless stream's per-generation bookkeeping, shared by
// the private and the broadcast source: which generations are still on
// the air, and how far each is from its overshoot cap.
type genStops struct {
	have map[int]bool // packed (gen, seq) the client already holds
	// left is how many more packets each generation may put on the air;
	// zero takes it off — the client decoded it, or the cap is spent.
	left   []int
	active int // generations with left > 0
}

func newGenStops(req Request, layout core.Layout) *genStops {
	st := &genStops{
		have:   make(map[int]bool, len(req.Have)),
		left:   make([]int, len(layout.Shapes)),
		active: len(layout.Shapes),
	}
	for _, packed := range req.Have {
		st.have[packed] = true
	}
	for g, shape := range layout.Shapes {
		st.left[g] = fountainOvershootCap(shape.M)
	}
	// Generations the client reports done are stopped before the first
	// frame — a stopgen that arrived with the request itself.
	for _, g := range req.DoneGens {
		st.stop(g)
	}
	return st
}

// Feedback implements FrameSource's half of a stopgen; a more is the
// loop's business alone.
func (st *genStops) Feedback(creq Request) error {
	if creq.Op == "stopgen" {
		st.stop(creq.Gen)
	}
	return nil
}

func (st *genStops) stop(g int) {
	if g >= 0 && g < len(st.left) && st.left[g] > 0 {
		st.left[g] = 0
		st.active--
	}
}

// admit decides whether packet (g, seq) goes on the air and charges it to
// the generation's overshoot cap. The charge is per frame handed to the
// loop, so a frame the injector then drops still counts: the cap bounds
// air time, delivered or not.
func (st *genStops) admit(g, seq int) bool {
	if st.left[g] == 0 || st.have[packet.PackSeq(g, seq)] {
		return false
	}
	if st.left[g]--; st.left[g] == 0 {
		st.active--
	}
	return true
}

// fountainSource is a private fountain stream: round-robin over the
// generations the client has not yet decoded, each generation's symbols
// in seq order, metered by the client's credit.
type fountainSource struct {
	*genStops
	resolved *planner.Resolved
	seed     uint64
	cursor   []int
	g        int // round-robin position
	// window is the stream's first credit: the frames a fixed-rate round
	// of the plan's γ would send — each live generation's N, less the
	// packets below N the client holds.
	window int
}

func newFountainSource(resolved *planner.Resolved, seed uint64, req Request, layout core.Layout) *fountainSource {
	f := &fountainSource{
		genStops: newGenStops(req, layout),
		resolved: resolved,
		seed:     seed,
		cursor:   make([]int, len(layout.Shapes)),
	}
	for g, left := range f.left {
		if left > 0 {
			f.window += resolved.Plan.Shape(g).N
		}
	}
	for packed := range f.have { //mobweb:nondet-ok a count; order is immaterial
		g, seq := packet.UnpackSeq(packed)
		if g >= 0 && g < len(f.left) && f.left[g] > 0 && seq < resolved.Plan.Shape(g).N {
			f.window--
		}
	}
	return f
}

func (f *fountainSource) SelfPaced() bool { return false }

func (f *fountainSource) Next(ctl <-chan Request) (Frame, Request, error) {
	for f.active > 0 {
		g := f.g
		if f.left[g] > 0 {
			// Polled before the round-robin position moves, so the frame
			// a request displaced is the next one out.
			if creq, err := PollControl(ctl); err != nil || creq.Op != "" {
				return Frame{}, creq, err
			}
		}
		f.g = (g + 1) % len(f.cursor)
		seq := f.cursor[g]
		f.cursor[g]++
		if !f.admit(g, seq) {
			continue
		}
		frame, err := f.resolved.FountainFrame(f.seed, g, seq)
		return Frame{Bytes: frame, Seq: packet.PackSeq(g, seq)}, Request{}, err
	}
	return Frame{}, Request{}, nil
}
