package transport

import (
	"errors"
	"fmt"

	"mobweb/internal/core"
	"mobweb/internal/erasure"
	"mobweb/internal/ewma"
	"mobweb/internal/obs"
)

// This file is the client's sequence manager (Figure 1) as one I/O-free
// step function: every §4.2 decision — when a round ends, what to grant,
// when to send stop or stopgen, when to redial, which error ends a fetch —
// is made here and nowhere else. The machine never reads a clock or a
// connection and starts no goroutine: a driver reads, steps, and does what
// the actions say. Three drivers run it: the socket (Client.FetchContext
// and PrefetchContext), and the simulated channel (SimulateFetch) behind
// the figures and the FT-MRT baseline. DESIGN.md §23 has the event,
// action and terminal tables.

// eventKind names what a driver hands the machine.
type eventKind uint8

const (
	// evHeader is a round's response record, which the driver read into
	// machine.resp: a layout and a credit window, or a refusal.
	evHeader eventKind = iota
	// evFrame is one wire frame (event.data).
	evFrame
	// evPacket is one frame the driver already parsed: its seq, with its
	// payload (event.data) when intact and none when corrupt.
	evPacket
	// evEnd is the stream's end marker.
	evEnd
	// evConnError is an I/O failure (event.err), or a redial that failed.
	evConnError
	// evRoundDeadline is a round that overran FetchOptions.RoundTimeout.
	evRoundDeadline
	// evCtxDone is the fetch's context done (event.err is its error).
	evCtxDone
	// evRedialed is the redial the machine asked for, succeeded.
	evRedialed
)

// event is one input to the machine.
type event struct {
	kind eventKind
	seq  int
	data []byte
	err  error
}

// actionKind names what the machine asks its driver to do.
type actionKind uint8

const (
	// actRequest sends action.req, a fetch request, and opens a round:
	// its response is the next event.
	actRequest actionKind = iota
	// actControl sends action.req mid-stream: stop, stopgen or more.
	actControl
	// actDrain persists the receiver to the client's store.
	actDrain
	// actRedial re-establishes the connection; evRedialed or a failure
	// is the next event.
	actRedial
	// actProgress hands action.prog to FetchOptions.OnProgress.
	actProgress
	// actFinish ends the fetch with action.err (nil: success).
	actFinish
)

// action is one output of the machine.
type action struct {
	kind actionKind
	req  Request
	prog Progress
	err  error
}

// phase is where the machine stands between events.
type phase uint8

const (
	// phaseHeader: a request is out; its response is next.
	phaseHeader phase = iota
	// phaseStream: frames are arriving.
	phaseStream
	// phaseDrain: stop is out; frames up to the end marker are dropped.
	phaseDrain
	// phaseRedial: a redial is out.
	phaseRedial
	// phaseDone: the fetch finished; the machine is inert.
	phaseDone
)

// errRoundDeadline is the round failure a redial answers when the round
// overran its deadline.
var errRoundDeadline = errors.New("transport: round deadline passed")

// machine is one fetch's decisions and the state they need. It is not
// safe for concurrent use.
type machine struct {
	opts FetchOptions
	res  FetchResult
	// rcv holds what arrived; nil until the first layout, unless the fetch
	// starts from stored packets.
	rcv *core.Receiver
	// alpha is AdaptGamma's channel estimator; nil without AdaptGamma.
	alpha *ewma.Estimator
	// canRedial reports whether the driver can re-establish its link.
	canRedial bool
	// budget, when positive, makes the fetch a prefetch window: it stops
	// once that many frames arrived, and ends with its first stream.
	budget    int
	maxRounds int
	gamma     float64
	phase     phase
	// roundErr is the failure the redial in flight answers.
	roundErr error

	// The client's counters and gauges; nil ones cost a nil check.
	rounds, reconnects, frames, corrupted *obs.Counter
	alphaGauge, gammaGauge                *obs.FloatGauge

	// The round in flight: the frame and corruption counts it started
	// from, its layout, the generations already reconstructible when it
	// started and (fountain) those stopgen went out for, and on a metered
	// stream the credit still owed with the frames and corrupt frames
	// streamed.
	recBefore, corBefore     int
	layout                   core.Layout
	doneAtStart, genStopped  []bool
	window                   int
	owed, streamed, corrupts int

	// seen holds the units OnProgress has had, by permuted offset.
	seen map[int]bool
	// err is the error the fetch finished with, once phase is done.
	err error
	// resp is the round's response record, which the driver reads in
	// before it steps the header event.
	resp Response
	// out holds the step's n actions: a step asks for at most a progress,
	// a drain or stopgen, a more, and one last action.
	out [4]action
	n   int
}

// newMachine returns the machine for one fetch, starting from rcv (nil:
// nothing held yet). A positive budget makes it a prefetch window.
func newMachine(opts FetchOptions, rcv *core.Receiver, budget int) machine {
	m := machine{opts: opts, rcv: rcv, budget: budget, gamma: opts.Gamma, maxRounds: opts.MaxRounds}
	if m.maxRounds <= 0 {
		m.maxRounds = 10
	}
	return m
}

// Start returns the fetch's first actions: a finish when the packets it
// starts from already satisfy it or when ctxErr, the fetch's context
// error, is set; else the first round's request.
func (m *machine) Start(ctxErr error) []action {
	m.n = 0
	if m.rcv != nil {
		m.res.StoredPackets = m.rcv.IntactCount()
		m.rcv.SetTrace(m.opts.Trace)
		m.opts.Trace.Record(obs.Event{Type: obs.EventStoreSeed, N: m.res.StoredPackets})
		if m.terminated() {
			return m.finish(nil)
		}
	}
	if ctxErr != nil {
		return m.finish(ctxErr)
	}
	return m.request()
}

// Step takes one event and returns what the driver must do, in order.
// The slice is the machine's own and valid until the next call. A driver
// steps ctx-done in place of end or redialed when the fetch's context is
// done, so no round opens after it.
func (m *machine) Step(ev event) []action {
	m.n = 0
	switch {
	case m.phase == phaseDone:
		return m.out[:m.n]
	case ev.kind == evConnError || ev.kind == evRoundDeadline || ev.kind == evCtxDone:
		return m.failed(ev.kind, ev.err)
	case ev.kind == evHeader && m.phase == phaseHeader:
		return m.header()
	case (ev.kind == evFrame || ev.kind == evPacket) && m.phase == phaseStream:
		return m.frame(ev)
	case (ev.kind == evFrame || ev.kind == evPacket) && m.phase == phaseDrain:
		return m.out[:m.n] // draining after stop
	case ev.kind == evEnd && (m.phase == phaseStream || m.phase == phaseDrain):
		m.endRound()
		if m.done() || m.budget > 0 {
			// A prefetch window is one stream: it asks for no
			// retransmission round.
			return m.finish(nil)
		}
		m.res.Stalled = true
		return m.request()
	case ev.kind == evRedialed && m.phase == phaseRedial:
		return m.request()
	}
	return m.abort(fmt.Errorf("%w: event %d in phase %d", ErrBadResponse, ev.kind, m.phase))
}

// request opens the next round, or ends the fetch once the rounds are
// spent.
func (m *machine) request() []action {
	if m.res.Rounds >= m.maxRounds {
		return m.fail(ErrRoundsExhausted, nil)
	}
	m.res.Rounds++
	m.rounds.Inc()
	req := m.opts.request()
	req.Gamma, req.Prefetch = m.gamma, m.budget > 0
	if m.rcv != nil && m.opts.Caching {
		// Have lists wire sequence numbers under either codec — the same
		// identifiers the receiver keys packets by. DoneGens covers what
		// Have cannot: a reconstructed generation's unheld repair rows.
		req.Have = m.rcv.HaveList()
		req.DoneGens = m.rcv.DoneGenerations()
		req.Seed = m.rcv.Layout().Seed
	}
	m.res.GammaRequests = append(m.res.GammaRequests, m.gamma)
	m.opts.Trace.Record(obs.Event{Type: obs.EventRoundStart, Round: m.res.Rounds, Value: m.gamma})
	m.recBefore, m.corBefore = m.res.PacketsReceived, m.res.PacketsCorrupted
	m.phase = phaseHeader
	return m.act(action{kind: actRequest, req: req})
}

// header takes a round's response: it rebases, builds or (NoCaching)
// resets the receiver, and opens the stream.
func (m *machine) header() []action {
	resp := &m.resp
	if !resp.OK {
		return m.abort(respRefusal(*resp, "fetch"))
	}
	if resp.Layout == nil {
		return m.abort(fmt.Errorf("%w: fetch response missing layout", ErrBadResponse))
	}
	if resp.Replica != "" {
		m.res.Replica = resp.Replica
	}
	if resp.Capability != "" {
		m.res.Capability = resp.Capability
	}
	m.res.Codec = resp.Layout.Codec.String()
	tr := m.opts.Trace
	if m.rcv != nil && (m.rcv.Layout().N() != resp.Layout.N() || m.rcv.Layout().SameStream(*resp.Layout) != nil) {
		// The geometry changed. A pure γ change (adaptive redundancy)
		// keeps every held cooked packet valid — systematic dispersal rows
		// are independent of N — so rebase onto the new layout; anything
		// else (the document edited server-side, which changes the seed
		// even at the same length, or the codec switched) makes Rebase
		// refuse and the cache is useless.
		rebased, err := m.rcv.Rebase(*resp.Layout)
		if err != nil {
			// The packets held, stored ones included, are another stream's:
			// none of them counts toward this fetch, and the timeline says so.
			m.rcv = nil
			if m.res.StoredPackets > 0 {
				m.res.StoredPackets = 0
				tr.Record(obs.Event{Type: obs.EventStoreSeed, Round: m.res.Rounds})
			}
		} else {
			m.rcv = rebased
			tr.Record(obs.Event{Type: obs.EventRebase, Round: m.res.Rounds, N: m.rcv.IntactCount()})
		}
	}
	if m.rcv == nil {
		rcv, err := core.NewReceiverFromLayout(*resp.Layout)
		if err != nil {
			return m.abort(err)
		}
		rcv.SetTrace(tr)
		m.rcv = rcv
	} else if m.res.Rounds > 1 && !m.opts.Caching {
		// NoCaching applies between rounds, resumes included; packets held
		// before the first round are local state, not a retransmission
		// cache.
		m.rcv.Reset()
	}
	m.layout = m.rcv.Layout()
	if m.seen == nil && m.opts.OnProgress != nil {
		// Sized for every unit, it never grows.
		m.seen = make(map[int]bool, len(m.layout.Accrual))
	}
	// One allocation holds both per-generation flag sets.
	gens := len(m.layout.Shapes)
	flags := make([]bool, 2*gens)
	m.doneAtStart, m.genStopped = flags[:gens:gens], nil
	for g := range m.doneAtStart {
		m.doneAtStart[g] = m.rcv.GenerationReconstructible(g)
	}
	// On a fountain stream the client closes the loop per generation: the
	// moment one decodes, a stopgen tells the transmitter to spend no more
	// air time on it.
	if m.layout.Codec == erasure.CodecFountain {
		m.genStopped = flags[gens:]
	}
	// On a metered stream owed is what the server still owes — the window
	// and every grant, less the frames read.
	m.window = resp.Window()
	m.owed, m.streamed, m.corrupts = m.window, 0, 0
	m.phase = phaseStream
	return m.out[:m.n]
}

// frame takes one frame of the stream.
func (m *machine) frame(ev event) []action {
	rcv := m.rcv
	m.res.PacketsReceived++
	m.frames.Inc()
	heldBefore := rcv.IntactCount()
	seq, intact := ev.seq, ev.data != nil
	var err error
	if ev.kind == evFrame {
		m.res.BytesReceived += len(ev.data)
		seq, intact, err = rcv.AddFrame(ev.data)
	} else if intact {
		err = rcv.Add(seq, ev.data)
	}
	if err != nil {
		return m.abort(err)
	}
	m.owed--
	m.streamed++
	// Refetch accounting: an intact frame already held, or one for a
	// generation reconstructible before this round started, is air time
	// the Have/DoneGens feedback should have saved.
	if !intact {
		m.corrupts++
		m.res.PacketsCorrupted++
		m.corrupted.Inc()
	} else if rcv.IntactCount() == heldBefore {
		m.res.RefetchedPackets++
	} else if g, _, ok := m.layout.SplitSeq(seq); ok && m.doneAtStart[g] {
		m.res.RefetchedPackets++
	}
	// Guarded rather than relying on the nil-safe Record alone: the guard
	// spares the untraced path even the event's construction.
	if tr := m.opts.Trace; tr != nil {
		if intact {
			tr.Record(obs.Event{Type: obs.EventPacket, Round: m.res.Rounds, Seq: seq})
		} else {
			tr.Record(obs.Event{Type: obs.EventCorrupt, Round: m.res.Rounds, Seq: seq})
		}
	}
	if m.opts.OnProgress != nil {
		m.act(action{kind: actProgress, prog: m.progress(seq, intact)})
	}
	if (intact && m.terminated()) || m.spent() {
		// Tell the transmitter to stop, then drain to the end marker so the
		// connection stays usable. A budget is charged per frame seen,
		// corrupt ones included: they cost the idle window's air time.
		m.opts.Trace.Record(obs.Event{Type: obs.EventStop, Round: m.res.Rounds, Seq: seq})
		m.phase = phaseDrain
		return m.act(action{kind: actControl, req: Request{Op: "stop"}})
	}
	if intact && m.genStopped != nil {
		if g, _, ok := m.layout.SplitSeq(seq); ok && !m.genStopped[g] && rcv.GenerationReconstructible(g) {
			m.genStopped[g] = true
			m.act(action{kind: actControl, req: Request{Op: "stopgen", Gen: g}})
		}
	}
	if m.window > 0 {
		needed := rcv.Needed()
		if m.budget > 0 {
			needed = min(needed, m.budget-m.res.PacketsReceived)
		}
		if n := grant(m.owed, needed, m.streamed, m.corrupts); n > 0 {
			m.owed += n
			m.act(action{kind: actControl, req: Request{Op: "more", Frames: n}})
		}
	}
	return m.out[:m.n]
}

// progress builds the rendering manager's report of one frame: the units
// it made available that OnProgress has not had yet.
func (m *machine) progress(seq int, intact bool) Progress {
	prog := Progress{Seq: seq, Intact: intact, InfoContent: m.rcv.InfoContent(),
		Replica: m.res.Replica, Capability: m.res.Capability, Codec: m.res.Codec}
	if intact {
		// The drain is the receiver's fresh slice: filter it in place.
		units := m.rcv.NewUnits()
		prog.NewUnits = units[:0]
		for _, u := range units {
			if !m.seen[u.Segment.PermutedOff] {
				m.seen[u.Segment.PermutedOff] = true
				prog.NewUnits = append(prog.NewUnits, u)
			}
		}
	}
	return prog
}

// failed takes a round that ended on a failure: a conn error, a deadline,
// the context. A failed redial ends the fetch; a failed round is
// redialed and resumed unless the fetch is done, the failure is not the
// link's, or no round or redial is left.
func (m *machine) failed(kind eventKind, err error) []action {
	if m.phase == phaseRedial {
		if kind == evCtxDone {
			return m.finish(err)
		}
		if !errors.Is(err, ErrDisconnected) {
			err = fmt.Errorf("%w: %w", ErrDisconnected, err)
		}
		return m.fail(err, m.roundErr)
	}
	m.endRound()
	switch {
	case kind == evConnError && !isConnError(err):
		return m.finish(err)
	case m.done():
		// The link failed after the stop condition held — in the drain
		// after stop, say. Done is done: nothing is owed, so there is
		// nothing to redial for.
		return m.finish(nil)
	case kind == evCtxDone:
		return m.finish(err)
	case kind == evRoundDeadline:
		err = errRoundDeadline
	}
	if !m.canRedial {
		return m.fail(fmt.Errorf("reconnection disabled: %w", ErrDisconnected), err)
	}
	if m.res.Rounds >= m.maxRounds {
		return m.fail(ErrRoundsExhausted, err)
	}
	// Redial and resume, carrying the receiver so held packets survive
	// the disconnect.
	m.res.Reconnects++
	m.reconnects.Inc()
	m.opts.Trace.Record(obs.Event{Type: obs.EventRedial, Round: m.res.Rounds, N: m.res.Reconnects})
	m.roundErr = err
	m.phase = phaseRedial
	return m.act(action{kind: actRedial})
}

// abort ends the round and the fetch on a failure no redial can mend: a
// refusal, a malformed response or frame.
func (m *machine) abort(err error) []action {
	m.endRound()
	return m.finish(err)
}

// endRound closes the books of the round in flight: its packets drain to
// the store whatever happened (a crash between rounds then costs nothing
// already received), the timeline records its end, and its corruption
// window feeds the α estimate — a partial window still carries channel
// information.
func (m *machine) endRound() {
	if m.phase == phaseRedial || m.phase == phaseDone {
		return
	}
	if m.opts.Caching && m.rcv != nil {
		m.act(action{kind: actDrain})
	}
	window := m.res.PacketsReceived - m.recBefore
	corrupt := m.res.PacketsCorrupted - m.corBefore
	tr := m.opts.Trace
	tr.Record(obs.Event{Type: obs.EventRoundEnd, Round: m.res.Rounds, N: window, Corrupt: corrupt})
	if m.alpha == nil || window == 0 {
		return
	}
	m.alpha.ObserveWindow(corrupt, window)
	a, ok := m.alpha.Value()
	if !ok {
		return
	}
	m.res.AlphaEstimates = append(m.res.AlphaEstimates, a)
	tr.Record(obs.Event{Type: obs.EventAlpha, Round: m.res.Rounds, Value: a})
	m.alphaGauge.Set(a)
	// γ sizes fixed-rate redundancy; a rateless stream adapts by
	// construction, so only the α estimate is kept (it still informs later
	// fixed-rate fetches).
	if m.rcv == nil || m.rcv.Layout().Codec == erasure.CodecFountain {
		return
	}
	if g, ok := adaptiveGamma(m.rcv.Layout(), a, m.opts.TargetSuccess); ok {
		if g != m.gamma {
			tr.Record(obs.Event{Type: obs.EventGamma, Round: m.res.Rounds, Value: g})
		}
		m.gamma = g
		m.gammaGauge.Set(g)
	}
}

// act adds a to the step's actions and returns them all.
func (m *machine) act(a action) []action {
	m.out[m.n] = a
	m.n++
	return m.out[:m.n]
}

// finish ends the fetch with err, nil for success.
func (m *machine) finish(err error) []action {
	m.phase, m.err = phaseDone, err
	return m.act(action{kind: actFinish, err: err})
}

// fail ends the fetch with err, naming the document and the round failure
// (nil: none) that led to it.
func (m *machine) fail(err, roundErr error) []action {
	if roundErr != nil {
		err = fmt.Errorf("%w (round failed: %w)", err, roundErr)
	}
	return m.finish(fmt.Errorf("transport: fetch %s: %w", m.opts.Doc, err))
}

// terminated reports a §4.2 stop condition: the document is
// reconstructible, or the accrued information content reached StopAtIC.
func (m *machine) terminated() bool {
	if m.rcv == nil {
		return false
	}
	if m.rcv.Reconstructible() {
		return true
	}
	return m.opts.StopAtIC > 0 && m.rcv.InfoContent() >= m.opts.StopAtIC
}

// spent reports a prefetch window whose frame budget is used up.
func (m *machine) spent() bool { return m.budget > 0 && m.res.PacketsReceived >= m.budget }

// done reports that nothing more is owed to the fetch.
func (m *machine) done() bool { return m.terminated() || m.spent() }

// grant is the client's credit rule on a metered stream, asked after every
// frame: how many more frames to ask for, given the frames the server
// still owes, the intact packets still needed, and this stream's frames
// and the corrupt ones among them. The owed frames must cover the need at
// the corruption rate seen — though a rate read off fewer frames than are
// still needed is noise, and until then they need only cover it on a clean
// channel. When they fall short, the grant tops them up to that cover and
// a quarter again, so the rate's wobble over the frames still to come does
// not draw a grant per corrupt frame. It goes out while frames are still
// owed, so it overlaps their arrival.
func grant(owed, needed, streamed, corrupt int) int {
	want := needed
	if streamed >= needed {
		good := max(streamed-corrupt, 1)
		want = (needed*streamed + good - 1) / good
	}
	if owed >= want {
		return 0
	}
	return want + (want+3)/4 - owed
}

// result assembles the fetch's result once it finished with err: the
// partial result alongside a terminal error, with whatever units were
// rendered, the accrued information content and the held-packet count.
func (m *machine) result(err error) (*FetchResult, error) {
	res, rcv := new(FetchResult), m.rcv
	*res = m.res
	if rcv == nil {
		return res, err
	}
	res.InfoContent = rcv.InfoContent()
	res.Rendered = rcv.Render()
	res.HeldPackets = rcv.IntactCount()
	if rcv.Reconstructible() {
		body, rerr := rcv.Reconstruct()
		if rerr != nil && err == nil {
			return nil, rerr
		}
		res.Body = body
	}
	return res, err
}
