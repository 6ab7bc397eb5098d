package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"testing"

	"mobweb/internal/core"
	"mobweb/internal/corpus"
	"mobweb/internal/packet"
)

// machineStream is a document's transmission as the fetch machine sees
// it: a layout and every wire frame by sequence number.
type machineStream struct {
	layout core.Layout
	frames map[int][]byte
	seqs   []int // the wire seqs in transmission order
}

// draftStream cooks the draft document into small generations, under
// the fixed-rate code or (fountain) the rateless one with reps rows per
// generation.
func draftStream(t *testing.T, fountain bool) machineStream {
	t.Helper()
	sc, ok := corpusEngine(t).SC(corpus.DraftName)
	if !ok {
		t.Fatal("draft document missing")
	}
	plan, err := core.NewPlan(sc, nil, core.Config{MaxGeneration: 8})
	if err != nil {
		t.Fatal(err)
	}
	s := machineStream{layout: plan.Layout(), frames: make(map[int][]byte)}
	if !fountain {
		for seq := 0; seq < plan.N(); seq++ {
			if s.frames[seq], err = plan.Frame(seq); err != nil {
				t.Fatal(err)
			}
			s.seqs = append(s.seqs, seq)
		}
		return s
	}
	const seed = 5
	s.layout = plan.FountainLayout(seed)
	for g, shape := range s.layout.Shapes {
		for i := 0; i < shape.M+4; i++ {
			seq := packet.PackSeq(g, i)
			if s.frames[seq], err = plan.FountainFrame(seed, g, i); err != nil {
				t.Fatal(err)
			}
			s.seqs = append(s.seqs, seq)
		}
	}
	return s
}

// response is the round's response record for s, with a credit window.
func (s machineStream) response(window int) Response {
	lo := s.layout
	return Response{OK: true, Layout: &lo, Sending: window}
}

// answer steps m with the header event of resp, read in where a driver
// reads it.
func answer(m *machine, resp Response) []action {
	m.resp = resp
	return m.Step(event{kind: evHeader})
}

// corrupt returns frame seq with one payload bit flipped.
func (s machineStream) corrupt(seq int) []byte {
	f := slices.Clone(s.frames[seq])
	f[len(f)-1] ^= 1
	return f
}

// link is a scripted peer for the machine: it answers each action the way
// a server and a socket would, clean or hostile.
type link struct {
	s machineStream
	// hostile makes every round fail: its stream is one corrupt frame and
	// then a dead connection.
	hostile bool
	queue   []event
}

// react queues what the peer does about one action.
func (l *link) react(a action) {
	switch {
	case a.kind == actRequest:
		l.queue = append(l.queue[:0], event{kind: evHeader})
		if l.hostile {
			l.queue = append(l.queue, event{kind: evFrame, data: l.s.corrupt(l.s.seqs[0])},
				event{kind: evConnError, err: io.EOF})
			return
		}
		for _, seq := range l.s.seqs {
			if !slices.Contains(a.req.Have, seq) {
				l.queue = append(l.queue, event{kind: evFrame, data: l.s.frames[seq]})
			}
		}
		l.queue = append(l.queue, event{kind: evEnd})
	case a.kind == actControl && a.req.Op == "stop":
		// The transmitter stops at once: what is queued is the end marker.
		l.queue = append(l.queue[:0], event{kind: evEnd})
	case a.kind == actRedial:
		l.queue = append(l.queue[:0], event{kind: evRedialed})
	}
}

// next is the peer's next event, a header's response read into m; with
// nothing queued it is what the machine's phase waits for.
func (l *link) next(m *machine) event {
	if len(l.queue) > 0 {
		ev := l.queue[0]
		l.queue = l.queue[1:]
		if ev.kind == evHeader {
			m.resp = l.s.response(0)
		}
		return ev
	}
	switch m.phase {
	case phaseHeader:
		l.react(action{kind: actRequest})
		return l.next(m)
	case phaseRedial:
		return event{kind: evRedialed}
	}
	if l.hostile {
		return event{kind: evConnError, err: io.EOF}
	}
	return event{kind: evEnd}
}

// run steps m from acts over l until it finishes, and returns the
// terminal error and every action taken. It fails the test when the
// machine is not finished within limit steps.
func (l *link) run(t *testing.T, m *machine, acts []action, limit int) (error, []action) {
	t.Helper()
	var took []action
	for step := 0; step <= limit; step++ {
		for _, a := range acts {
			took = append(took, a)
			if a.kind == actFinish {
				return a.err, took
			}
			l.react(a)
		}
		acts = m.Step(l.next(m))
	}
	t.Fatalf("no terminal state within %d steps (phase %s)", limit, phaseNames[m.phase])
	return nil, nil
}

// machineIn returns a machine standing in phase p with the actions that
// got it there, its fetch under opts over s with MaxRounds 3.
func machineIn(t *testing.T, p phase, s machineStream, opts FetchOptions) (*machine, []action) {
	t.Helper()
	opts.MaxRounds = 3
	mv := newMachine(opts, nil, 0)
	m := &mv
	m.canRedial = true
	acts := m.Start(nil)
	if p == phaseHeader {
		return m, acts
	}
	acts = answer(m, s.response(0))
	switch p {
	case phaseRedial:
		acts = m.Step(event{kind: evConnError, err: io.EOF})
	case phaseDrain, phaseDone:
		for _, seq := range s.seqs {
			if acts = m.Step(event{kind: evFrame, data: s.frames[seq]}); m.phase != phaseStream {
				break
			}
		}
		if p == phaseDone {
			acts = m.Step(event{kind: evEnd})
		}
	}
	if m.phase != p {
		t.Fatalf("setup reached phase %s, want %s", phaseNames[m.phase], phaseNames[p])
	}
	return m, acts
}

// TestMachineTerminalSet walks every (phase, event) pair of the fetch
// machine. Each pair either ends the fetch at once with the error class
// the table names, or (→) carries on; every path then finishes within a
// bound over a clean link (success) and over a hostile one whose every
// round dies (rounds exhausted) — no event sequence leaves a fetch
// waiting on nothing. A machine past its stop condition never redials.
// DESIGN.md §23 is this table.
func TestMachineTerminalSet(t *testing.T) {
	s := draftStream(t, false)
	header := event{kind: evHeader}
	events := []struct {
		name string
		ev   event
		resp Response // a header's response record
	}{
		{"header", header, s.response(0)},
		{"shed", header, Response{Shed: true, RetryAfterMS: 100}},
		{"degraded", header, Response{Degraded: true, Capability: CapSearchOnly.String()}},
		{"refused", header, Response{Error: "unknown document"}},
		{"no-layout", header, Response{OK: true}},
		{"intact", event{kind: evFrame, data: s.frames[0]}, Response{}},
		{"corrupt", event{kind: evFrame, data: s.corrupt(0)}, Response{}},
		{"lost", event{kind: evPacket, seq: 0}, Response{}},
		{"end", event{kind: evEnd}, Response{}},
		{"eof", event{kind: evConnError, err: io.EOF}, Response{}},
		{"rerouted", event{kind: evConnError, err: fmt.Errorf("leg: %w", ErrReroute)}, Response{}},
		{"disconnected", event{kind: evConnError, err: fmt.Errorf("redial: %w", ErrDisconnected)}, Response{}},
		{"deadline", event{kind: evRoundDeadline, err: os.ErrDeadlineExceeded}, Response{}},
		{"canceled", event{kind: evCtxDone, err: context.Canceled}, Response{}},
		{"redialed", event{kind: evRedialed}, Response{}},
	}
	const (
		on  = "→"            // the fetch carries on
		bad = "bad-response" // an event the phase cannot take
	)
	table := map[phase][]string{
		//           header shed    degraded    refused    no-layout intact corrupt lost end  eof             rerouted        disconnected    deadline        canceled    redialed
		phaseHeader: {on, "shed", "degraded", "refused", bad, bad, bad, bad, bad, on, "rerouted", "disconnected", on, "canceled", bad},
		phaseStream: {bad, bad, bad, bad, bad, on, on, on, on, on, "rerouted", "disconnected", on, "canceled", bad},
		phaseDrain:  {bad, bad, bad, bad, bad, on, on, on, on, on, "rerouted", "disconnected", on, on, bad},
		phaseRedial: {bad, bad, bad, bad, bad, bad, bad, bad, bad, "disconnected", "disconnected", "disconnected", "disconnected", "canceled", on},
	}
	limit := 4 * (len(s.seqs) + 4) // MaxRounds 3, and a redial's step each
	for _, p := range []phase{phaseHeader, phaseStream, phaseDrain, phaseRedial} {
		for i, e := range events {
			want := table[p][i]
			for _, hostile := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/hostile=%v", phaseNames[p], e.name, hostile), func(t *testing.T) {
					m, _ := machineIn(t, p, s, FetchOptions{Caching: true})
					m.resp = e.resp
					acts := m.Step(e.ev)
					if want != on && (len(acts) == 0 || acts[len(acts)-1].kind != actFinish) {
						t.Fatalf("actions %v, want the fetch finished with %q", kinds(acts), want)
					}
					l := &link{s: s, hostile: hostile}
					err, took := l.run(t, m, acts, limit)
					switch {
					case want != on:
						if got := errClass(err); got != want {
							t.Errorf("finished with %v (%q), want %q", err, got, want)
						}
					case p == phaseDrain:
						// Done is done, whatever the link does next.
						if err != nil || m.res.Reconnects != 0 || slices.ContainsFunc(took, isRequest) {
							t.Errorf("past its stop condition: err %v, %d redials, actions %v", err, m.res.Reconnects, kinds(took))
						}
					case hostile:
						if !errors.Is(err, ErrRoundsExhausted) {
							t.Errorf("over a dying link finished with %v, want rounds exhausted", err)
						}
					case err != nil:
						t.Errorf("over a clean link finished with %v", err)
					}
					if m.phase != phaseDone || len(m.Step(event{kind: evEnd})) != 0 {
						t.Errorf("a finished machine acts again (phase %s)", phaseNames[m.phase])
					}
				})
			}
		}
	}
	// A finished fetch is inert: no event wakes it.
	m, _ := machineIn(t, phaseDone, s, FetchOptions{Caching: true})
	for _, e := range events {
		m.resp = e.resp
		if acts := m.Step(e.ev); len(acts) != 0 || m.phase != phaseDone {
			t.Errorf("done machine answers %s with %v", e.name, kinds(acts))
		}
	}
}

func isRequest(a action) bool { return a.kind == actRequest }

// phaseNames names the machine's phases for subtests and failure messages.
var phaseNames = [...]string{"header", "stream", "drain", "redial", "done"}

// kinds names actions for failure messages.
func kinds(acts []action) []string {
	names := [...]string{"request", "control", "drain", "redial", "progress", "finish"}
	var out []string
	for _, a := range acts {
		n := names[a.kind]
		if a.kind == actControl {
			n = a.req.Op
		}
		out = append(out, n)
	}
	return out
}

// TestMachineDecisions pins each of the machine's §4.2 decisions on its
// own: the rounds cap, NoCaching's reset, stop at StopAtIC, stopgen and
// the credit grant on a rateless stream, and the prefetch budget.
func TestMachineDecisions(t *testing.T) {
	s := draftStream(t, false)
	t.Run("rounds cap", func(t *testing.T) {
		// Every round stalls: a header and the end marker, no frames.
		m := newMachine(FetchOptions{MaxRounds: 3}, nil, 0)
		acts, requests := m.Start(nil), 0
		for m.phase != phaseDone {
			for _, a := range acts {
				if a.kind == actRequest {
					requests++
				}
			}
			if m.phase == phaseHeader {
				acts = answer(&m, s.response(0))
			} else {
				acts = m.Step(event{kind: evEnd})
			}
		}
		err := acts[len(acts)-1].err
		if requests != 3 || m.res.Rounds != 3 || !errors.Is(err, ErrRoundsExhausted) || !m.res.Stalled {
			t.Errorf("%d requests, %d rounds, stalled %v, err %v; want 3, 3, true, rounds exhausted",
				requests, m.res.Rounds, m.res.Stalled, err)
		}
	})
	t.Run("NoCaching resets between rounds", func(t *testing.T) {
		for _, caching := range []bool{false, true} {
			m := newMachine(FetchOptions{Caching: caching}, nil, 0)
			m.Start(nil)
			answer(&m, s.response(0))
			m.Step(event{kind: evFrame, data: s.frames[0]})
			acts := m.Step(event{kind: evEnd})
			req := acts[len(acts)-1].req
			answer(&m, s.response(0))
			held := 0
			if caching {
				held = 1
			}
			if m.rcv.IntactCount() != held || len(req.Have) != held {
				t.Errorf("caching %v: round 2 holds %d packets and asks with Have %v, want %d", caching, m.rcv.IntactCount(), req.Have, held)
			}
		}
	})
	t.Run("stop at StopAtIC", func(t *testing.T) {
		m := newMachine(FetchOptions{StopAtIC: 0.05}, nil, 0)
		m.Start(nil)
		answer(&m, s.response(0))
		for _, seq := range s.seqs {
			if acts := m.Step(event{kind: evFrame, data: s.frames[seq]}); slices.ContainsFunc(acts, isStop) {
				if m.rcv.Reconstructible() || m.rcv.InfoContent() < 0.05 {
					t.Errorf("stopped at IC %.3f, reconstructible %v", m.rcv.InfoContent(), m.rcv.Reconstructible())
				}
				return
			}
		}
		t.Error("no stop before the stream ran out")
	})
	f := draftStream(t, true)
	if len(f.layout.Shapes) < 2 {
		t.Fatalf("the fountain stream has %d generations, want several", len(f.layout.Shapes))
	}
	t.Run("stopgen once per decoded generation", func(t *testing.T) {
		m := newMachine(FetchOptions{Codec: f.layout.Codec}, nil, 0)
		m.Start(nil)
		answer(&m, f.response(0))
		var stopgens []int
		for _, seq := range f.seqs {
			for _, a := range m.Step(event{kind: evFrame, data: f.frames[seq]}) {
				if a.kind == actControl && a.req.Op == "stopgen" {
					stopgens = append(stopgens, a.req.Gen)
				}
			}
			if m.phase != phaseStream {
				break
			}
		}
		// The last generation's decode completes the document: stop, not
		// stopgen.
		want := make([]int, len(f.layout.Shapes)-1)
		for g := range want {
			want[g] = g
		}
		if !slices.Equal(stopgens, want) {
			t.Errorf("stopgens for generations %v, want %v", stopgens, want)
		}
	})
	t.Run("grant on a metered stream", func(t *testing.T) {
		m := newMachine(FetchOptions{Codec: f.layout.Codec}, nil, 0)
		m.Start(nil)
		answer(&m, f.response(2))
		var granted int
		for _, seq := range f.seqs[:4] {
			for _, a := range m.Step(event{kind: evFrame, data: f.corrupt(seq)}) {
				if a.kind == actControl && a.req.Op == "more" {
					granted += a.req.Frames
				}
			}
		}
		if granted == 0 || m.owed <= 0 {
			t.Errorf("a window of 2 and 4 corrupt frames drew grants of %d frames (owed %d), want the need covered", granted, m.owed)
		}
	})
	t.Run("prefetch budget", func(t *testing.T) {
		m := newMachine(FetchOptions{Caching: true}, nil, 5)
		m.Start(nil)
		answer(&m, s.response(0))
		for i, seq := range s.seqs {
			frame := s.frames[seq]
			if i%2 == 1 {
				frame = s.corrupt(seq) // corrupt frames burn budget too
			}
			if acts := m.Step(event{kind: evFrame, data: frame}); slices.ContainsFunc(acts, isStop) {
				break
			}
		}
		acts := m.Step(event{kind: evEnd})
		if m.res.PacketsReceived != 5 || acts[len(acts)-1].kind != actFinish || acts[len(acts)-1].err != nil {
			t.Errorf("window took %d frames and ended with %v, want 5 and a clean finish", m.res.PacketsReceived, kinds(acts))
		}
	})
}

func isStop(a action) bool { return a.kind == actControl && a.req.Op == "stop" }
