package transport

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net"
	"time"

	"mobweb/internal/core"
	"mobweb/internal/erasure"
	"mobweb/internal/packet"
	"mobweb/internal/planner"
)

// This file is the server's one stream loop (§4.2: send cooked packets in
// order until the client signals stop) and the transmitter's frame sources
// that drive it. A source alone knows which frame comes next, how it waits
// for control requests, what a stopgen means to it and on whose clock its
// frames arrive; the loop alone decides what a mid-stream request is,
// meters a credit-windowed stream, injects channel faults, writes,
// flushes, paces and counts. A retransmission round, a rateless stream
// and a front's relayed stream (shard.relay) are the same loop over
// different sources.

// Frame is one frame handed from a source to the stream loop. The bytes
// stay the source's — frame-cache slices are shared with other
// connections — and are good until the next call to Next: the loop
// only reads them, and copies before a mutating injector sees them.
type Frame struct {
	// Bytes is the wire frame; nil marks the end of the source.
	Bytes []byte
	// Seq is the frame's wire sequence number, the fault injector's key.
	Seq int
}

// FrameSource decides what a fetch stream sends.
type FrameSource interface {
	// Next returns the next frame. It polls the control channel first and
	// hands back a request it received (Op non-empty) instead of a frame.
	// A closed channel means the connection is gone: io.EOF.
	Next(ctl <-chan Request) (Frame, Request, error)
	// Feedback applies a client's mid-stream stopgen or more. The loop has
	// already charged a more to the stream's window; a source that relays
	// the stream passes both on.
	Feedback(creq Request) error
	// SelfPaced reports that the source's frames arrive on a clock of
	// their own (a relayed stream): the loop must not pace them a second
	// time, and since Next may block until the next one comes, it flushes
	// each frame before asking. A source whose Next never blocks leaves
	// flushing to the write buffer, which flushes when full and when the
	// stream ends.
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
	// blk is the frame block the round is sending from: the cache is
	// asked once per block, not once per frame.
	blk *planner.Block
}

// newRowSource returns the round's source and the number of rows it will
// put on the air.
func newRowSource(resolved *planner.Resolved, layout core.Layout, req Request, clearOnly bool) (r *rowSource, sending int) {
	r = &rowSource{resolved: resolved, skip: make([]bool, layout.N())}
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
			sending++
		}
	}
	return r, sending
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
	gen, row, err := r.resolved.Plan.Locate(seq)
	if err == nil && !r.blk.Has(gen, row) {
		r.blk, err = r.resolved.Block(erasure.CodecVandermonde, 0, gen, row)
	}
	if err != nil {
		return Frame{}, Request{}, err
	}
	return Frame{Bytes: r.blk.Frame(row), Seq: seq}, Request{}, nil
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

// fountainSource is a private fountain stream: round-robin over the
// generations the client has not yet decoded, each generation's symbols
// in seq order, metered by the client's credit. On a clear-prefix tier it
// sends each live generation's unheld source symbols (seq < M) and ends:
// the stream is systematic, so those are the raw packets, and no repair is
// ever cooked.
type fountainSource struct {
	resolved *planner.Resolved
	seed     uint64
	have     map[int]bool // packed (gen, seq) the client already holds
	gens     []fountainGen
	active   int // generations with left > 0
	g        int // round-robin position
	// window is the stream's first credit: the frames a fixed-rate round
	// of the plan's γ would send — each live generation's N, less the
	// packets below N the client holds. On a clear-prefix tier it is M in
	// place of N, which is every frame the stream sends.
	window int
}

// fountainGen is one generation's share of a fountain stream.
type fountainGen struct {
	// left is how many more packets the generation may put on the air;
	// zero takes it off — the client decoded it, or the cap is spent.
	left int
	// cursor is the next seq of the generation's stream.
	cursor int
	// blk is the frame block the generation is sending from: the round
	// robin moves between generations, each along its own blocks.
	blk *planner.Block
}

func newFountainSource(resolved *planner.Resolved, seed uint64, req Request, layout core.Layout, clearOnly bool) *fountainSource {
	gens := len(layout.Shapes)
	f := &fountainSource{
		resolved: resolved,
		seed:     seed,
		have:     make(map[int]bool, len(req.Have)),
		gens:     make([]fountainGen, gens),
	}
	for _, packed := range req.Have {
		f.have[packed] = true
	}
	// round(g) is generation g's share of the first window: its N, or its
	// M on a clear-prefix tier.
	round := func(g int) int {
		if clearOnly {
			return layout.Shapes[g].M
		}
		return resolved.Plan.Shape(g).N
	}
	for g, shape := range layout.Shapes {
		f.gens[g].left = fountainOvershootCap(shape.M)
		if clearOnly {
			f.gens[g].left = shape.M
		}
	}
	// Generations the client reports done are stopped before the first
	// frame — a stopgen that arrived with the request itself.
	for _, g := range req.DoneGens {
		if g >= 0 && g < gens {
			f.gens[g].left = 0
		}
	}
	for g := range f.gens {
		if f.gens[g].left > 0 {
			f.window += round(g)
		}
	}
	for packed := range f.have {
		g, seq := packet.UnpackSeq(packed)
		if g >= 0 && g < gens && f.gens[g].left > 0 && seq < round(g) {
			f.window--
			if clearOnly {
				// A held source is skipped, not sent: it costs no air time.
				f.gens[g].left--
			}
		}
	}
	for g := range f.gens {
		if f.gens[g].left > 0 {
			f.active++
		}
	}
	return f
}

// Feedback implements FrameSource's half of a stopgen; a more is the
// loop's business alone.
func (f *fountainSource) Feedback(creq Request) error {
	if g := creq.Gen; creq.Op == "stopgen" && g >= 0 && g < len(f.gens) && f.gens[g].left > 0 {
		f.gens[g].left = 0
		f.active--
	}
	return nil
}

func (f *fountainSource) SelfPaced() bool { return false }

func (f *fountainSource) Next(ctl <-chan Request) (Frame, Request, error) {
	for f.active > 0 {
		g := f.g
		gen := &f.gens[g]
		if gen.left > 0 {
			// Polled before the round-robin position moves, so the frame
			// a request displaced is the next one out.
			if creq, err := PollControl(ctl); err != nil || creq.Op != "" {
				return Frame{}, creq, err
			}
		}
		f.g = (g + 1) % len(f.gens)
		seq := gen.cursor
		gen.cursor++
		// The charge is per frame handed to the loop, so a frame the
		// injector then drops still counts: the cap bounds air time,
		// delivered or not.
		if gen.left == 0 || f.have[packet.PackSeq(g, seq)] {
			continue
		}
		if gen.left--; gen.left == 0 {
			f.active--
		}
		if !gen.blk.Has(g, seq) {
			var err error
			if gen.blk, err = f.resolved.Block(erasure.CodecFountain, f.seed, g, seq); err != nil {
				return Frame{}, Request{}, err
			}
		}
		return Frame{Bytes: gen.blk.Frame(seq), Seq: packet.PackSeq(g, seq)}, Request{}, nil
	}
	return Frame{}, Request{}, nil
}
