package transport

import (
	"bufio"
	"fmt"
	"io"
	"time"

	"mobweb/internal/core"
	"mobweb/internal/obs"
	"mobweb/internal/packet"
	"mobweb/internal/planner"
)

// This file is the transmitter's one stream loop (§4.2: send cooked
// packets in order until the client signals stop) and the frame sources
// that drive it. A source alone knows which frame comes next, whether its
// bytes are shared, how it waits for control requests, and what a stopgen
// means to it; the loop alone classifies those requests, injects channel
// faults, writes, flushes, paces, counts and terminates the stream. A
// retransmission round, a rateless open-loop stream and a broadcast
// subscription are the same loop over different sources.

// StreamControl is what a control-channel request means to a fetch stream.
type StreamControl int

const (
	// NotStreamControl is any other op: an ordinary request between
	// streams, a protocol violation during one.
	NotStreamControl StreamControl = iota
	// StopStream ("stop") ends the stream: the client reached a §4.2
	// termination condition.
	StopStream
	// StopGeneration ("stopgen") takes one generation off the air: the
	// client decoded it.
	StopGeneration
)

// ClassifyControl is the single decision of which ops are stream feedback,
// shared by the server and the shard front. Feedback is legal at any
// time: during a stream it steers it, and between streams it is stale —
// it raced the end-of-stream marker — and is dropped without a response,
// since the client is not waiting for one.
func ClassifyControl(op string) StreamControl {
	switch op {
	case "stop":
		return StopStream
	case "stopgen":
		return StopGeneration
	default:
		return NotStreamControl
	}
}

// srcFrame is one frame handed from a source to the stream loop.
type srcFrame struct {
	// bytes is the wire frame; nil marks the end of the source.
	bytes []byte
	// seq is the frame's wire sequence number, the fault injector's key.
	seq int
	// shared marks bytes other connections stream too (frame-cache or
	// broadcast slices): immutable, so the loop copies them before a
	// mutating injector sees them. Otherwise bytes is the loop's own
	// buffer, rebuilt by the source each frame, which also keeps one
	// frame's in-place corruption from leaking into the next.
	shared bool
}

// frameSource decides what a fetch stream sends.
type frameSource interface {
	// next returns the next frame, marshaling into buf when it builds a
	// private one. It looks at the control channel first, the way the
	// source must — private sources poll it without blocking, a broadcast
	// subscription blocks on it together with its frame queue — and hands
	// back a request it received (Op non-empty) instead of a frame. A
	// closed channel means the connection is gone: io.EOF.
	next(ctl <-chan Request, buf []byte) (srcFrame, Request, error)
	// stopGen applies a client's stopgen for generation g.
	stopGen(g int) error
	// openLoop reports a stream that ends only through client feedback.
	// Its frames are flushed one by one — they must reach the decoder
	// promptly rather than sit in the write buffer — and count as
	// fountain frames; a closed-loop round flushes at its end.
	openLoop() bool
}

// stream runs one fetch stream to its end-of-stream marker.
func (s *Server) stream(w *bufio.Writer, req Request, src frameSource, requests <-chan Request, injector FaultInjector, delay time.Duration) error {
	_, cleanChannel := injector.(NopInjector)
	open := src.openLoop()
	var buf []byte
	sent := 0
stream:
	for {
		fr, creq, err := src.next(requests, buf)
		if err != nil {
			return err
		}
		if creq.Op != "" {
			switch ClassifyControl(creq.Op) {
			case StopStream:
				break stream
			case StopGeneration:
				if err := src.stopGen(creq.Gen); err != nil {
					return err
				}
				continue
			default:
				return fmt.Errorf("transport: %q request during stream", creq.Op)
			}
		}
		if fr.bytes == nil {
			break
		}
		out := fr.bytes
		if !fr.shared {
			buf = out
		}
		if !cleanChannel {
			if fr.shared {
				buf = append(buf[:0], out...)
				out = buf
			}
			var send bool
			if out, send = injector.Inject(out, fr.seq); !send {
				s.sm.framesDropped.Inc()
				continue
			}
		}
		if err := WriteFrame(w, out); err != nil {
			return err
		}
		sent++
		s.sm.framesOut.Inc()
		if open {
			s.sm.fountainFrames.Inc()
		}
		if open || delay > 0 {
			if err := w.Flush(); err != nil {
				return err
			}
		}
		if delay > 0 {
			time.Sleep(delay)
		}
	}
	s.sm.fetchLog.Record(obs.FetchRecord{
		Doc:     req.Doc,
		Origin:  "server",
		Replica: s.opts.Name,
		Sent:    sent,
		Have:    len(req.Have),
		Gamma:   req.Gamma,
	})
	if err := WriteEndOfStream(w); err != nil {
		return err
	}
	return w.Flush()
}

// pollControl is a private source's look at the control channel: whatever
// is already there, never a wait.
func pollControl(ctl <-chan Request) (Request, error) {
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

func (r *rowSource) next(ctl <-chan Request, buf []byte) (srcFrame, Request, error) {
	for r.seq < len(r.skip) && r.skip[r.seq] {
		r.seq++
	}
	if r.seq == len(r.skip) {
		return srcFrame{}, Request{}, nil
	}
	if creq, err := pollControl(ctl); err != nil || creq.Op != "" {
		return srcFrame{}, creq, err
	}
	seq := r.seq
	r.seq++
	if r.resolved.Cached() {
		frame, err := r.resolved.Frame(seq)
		return srcFrame{bytes: frame, seq: seq, shared: true}, Request{}, err
	}
	frame, err := r.resolved.Plan.AppendFrame(buf[:0], seq)
	return srcFrame{bytes: frame, seq: seq}, Request{}, err
}

func (r *rowSource) stopGen(int) error {
	return fmt.Errorf("transport: %q request during a fixed-rate stream", "stopgen")
}

func (r *rowSource) openLoop() bool { return false }

// fountainOvershootCap bounds the packets a fountain stream sends for
// one generation of M source symbols before giving up on feedback:
// enough for decode at severe loss (4M covers α beyond 0.7), with a
// floor for tiny generations whose soliton overhead is proportionally
// larger.
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
		st.stopGen(g)
	}
	return st
}

func (st *genStops) stopGen(g int) error {
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

func (st *genStops) openLoop() bool { return true }

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

func (f *fountainSource) next(ctl <-chan Request, buf []byte) (srcFrame, Request, error) {
	for f.active > 0 {
		g := f.g
		if f.left[g] > 0 {
			// Polled before the round-robin position moves, so the frame
			// a request displaced is the next one out.
			if creq, err := pollControl(ctl); err != nil || creq.Op != "" {
				return srcFrame{}, creq, err
			}
		}
		f.g = (g + 1) % len(f.cursor)
		seq := f.cursor[g]
		f.cursor[g]++
		if !f.admit(g, seq) {
			continue
		}
		packed := packet.PackSeq(g, seq)
		if f.resolved.Cached() {
			frame, err := f.resolved.FountainFrame(f.seed, g, seq)
			return srcFrame{bytes: frame, seq: packed, shared: true}, Request{}, err
		}
		frame, err := f.resolved.Plan.AppendFountainFrame(buf[:0], f.seed, g, seq)
		return srcFrame{bytes: frame, seq: packed}, Request{}, err
	}
	return srcFrame{}, Request{}, nil
}
