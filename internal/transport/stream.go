package transport

import (
	"bufio"
	"fmt"
	"io"
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
// injects channel faults, writes, flushes, paces and counts. A
// retransmission round, a rateless open-loop stream, a broadcast
// subscription and a front's relayed stream (shard.relay) are the same
// loop over different sources.

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
	// StopGen applies a client's stopgen for generation g.
	StopGen(g int) error
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
func (s *Server) pump(w *bufio.Writer, src FrameSource, requests <-chan Request, injector FaultInjector) (int, error) {
	_, cleanChannel := injector.(NopInjector)
	selfPaced := src.SelfPaced()
	delay := s.opts.PacketDelay
	if selfPaced {
		delay = 0
	}
	var scratch []byte // the injector's private copy of the current frame
	sent := 0
	for {
		fr, creq, err := src.Next(requests)
		if err != nil {
			return sent, err
		}
		// Stream feedback is "stop" (the client reached a §4.2 termination
		// condition) and "stopgen" (it decoded one generation); any other
		// request during a stream is a protocol violation.
		switch creq.Op {
		case "":
		case "stop":
			return sent, nil
		case "stopgen":
			if err := src.StopGen(creq.Gen); err != nil {
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

func (r *rowSource) StopGen(int) error {
	return fmt.Errorf("transport: %q request during a fixed-rate stream", "stopgen")
}

func (r *rowSource) SelfPaced() bool { return false }

// fountainOvershootCap bounds the packets a fountain stream sends for
// one generation of M source symbols before giving up on feedback:
// enough for decode at severe loss (4M covers α beyond 0.7), with a
// floor for tiny generations, where a short run of losses is a large
// share of the generation.
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
		st.StopGen(g)
	}
	return st
}

func (st *genStops) StopGen(g int) error {
	if g >= 0 && g < len(st.left) && st.left[g] > 0 {
		st.left[g] = 0
		st.active--
	}
	return nil
}

// admit decides whether packet (g, seq) goes on the air and charges it to
// the generation's overshoot cap. The charge is per frame handed to the
// loop, so a frame the injector then drops still counts: the cap bounds
// air time spent without feedback, delivered or not.
func (st *genStops) admit(g, seq int) bool {
	if st.left[g] == 0 || st.have[packet.PackSeq(g, seq)] {
		return false
	}
	if st.left[g]--; st.left[g] == 0 {
		st.active--
	}
	return true
}

// fountainSource is a private open-loop fountain stream: round-robin over
// the generations the client has not yet decoded, each generation's
// symbols in seq order.
type fountainSource struct {
	*genStops
	resolved *planner.Resolved
	seed     uint64
	cursor   []int
	g        int // round-robin position
}

func newFountainSource(resolved *planner.Resolved, seed uint64, req Request, layout core.Layout) *fountainSource {
	return &fountainSource{
		genStops: newGenStops(req, layout),
		resolved: resolved,
		seed:     seed,
		cursor:   make([]int, len(layout.Shapes)),
	}
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
