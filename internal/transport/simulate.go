package transport

import (
	"mobweb/internal/channel"
	"mobweb/internal/core"
	"mobweb/internal/packet"
)

// SimulateFetch runs the client's fetch machine — the decisions Fetch
// makes on a socket — over a simulated channel, so the simulator and the
// FT-MRT baseline measure the client itself rather than a copy of it.
//
// Every request is answered at once with layout: §5's model charges air
// time only for frames. rows is the simulated server, called once per
// round with the round's request: it names the wire sequence numbers the
// round transmits, in order, through send, and stops when send returns
// false — the client said stop. Each send is one ch.Send of a frame of
// the layout's size; cook gives an intact row's payload, and a corrupt
// row needs no bytes at all. seed, when non-nil, is the receiver the
// fetch starts from. The result carries the fetch's counters — rounds,
// frames, stalls — and no body: nothing is reconstructed. The error is
// the machine's terminal error, such as ErrRoundsExhausted.
func SimulateFetch(ch *channel.Channel, layout core.Layout, opts FetchOptions, seed *core.Receiver,
	rows func(req *Request, send func(seq int) bool), cook func(seq int) ([]byte, error)) (*FetchResult, error) {
	m := newMachine(opts, seed, 0)
	m.resp = Response{OK: true, Layout: &layout}
	frameSize := packet.FrameSize(layout.PacketSize)
	var err error // a cook failure
	send := func(seq int) bool {
		ev := event{kind: evPacket, seq: seq}
		if ch.Send(frameSize).Outcome == channel.Intact {
			if ev.data, err = cook(seq); err != nil {
				return false
			}
		}
		m.Step(ev)
		return m.phase == phaseStream
	}
	var req Request
	acts := m.Start(nil)
	for m.phase != phaseDone {
		req = acts[len(acts)-1].req // a step that opens a round ends with its request
		if m.Step(event{kind: evHeader}); m.phase == phaseStream {
			rows(&req, send)
		}
		if err != nil {
			return &m.res, err
		}
		acts = m.Step(event{kind: evEnd})
	}
	return &m.res, m.err
}

// UnheldRows is the server model that skips held rows: each round sends
// the rows of an n-row layout its request's Have does not list, in order,
// from row first in the first round and from row 0 after.
func UnheldRows(n, first int) func(req *Request, send func(seq int) bool) {
	return func(req *Request, send func(int) bool) {
		have := req.Have
		for seq := first; seq < n; seq++ {
			for len(have) > 0 && have[0] < seq {
				have = have[1:]
			}
			if len(have) > 0 && have[0] == seq {
				continue
			}
			if !send(seq) {
				break
			}
		}
		first = 0
	}
}
