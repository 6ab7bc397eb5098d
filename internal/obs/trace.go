package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// Event types recorded by the fetch tracer. Each fetch is a deterministic
// single-goroutine sequence of these, so two runs over identical traffic
// produce byte-identical timelines (the golden-trace test relies on
// this); events deliberately carry no wall-clock timestamps.
const (
	// EventRoundStart opens transmission round Round with requested
	// redundancy ratio Value (0 means "server default").
	EventRoundStart = "round-start"
	// EventRoundEnd closes round Round after receiving N frames of which
	// Corrupt failed their CRC.
	EventRoundEnd = "round-end"
	// EventPacket is one intact frame with cooked sequence number Seq.
	EventPacket = "packet"
	// EventCorrupt is one CRC-failed frame claiming sequence number Seq.
	EventCorrupt = "corrupt"
	// EventDecode is generation Gen's decode: the first read that made
	// its raw packets readable, solving for any that did not arrive.
	EventDecode = "decode"
	// EventGamma is an adaptive-γ change: the next round will request
	// redundancy Value.
	EventGamma = "gamma"
	// EventAlpha is a §4.4 EWMA α-estimate update to Value.
	EventAlpha = "alpha"
	// EventRedial is a reconnect after a mid-round connection failure;
	// N is the fetch's reconnect count so far.
	EventRedial = "redial"
	// EventRebase carries N held packets onto a γ-changed layout.
	EventRebase = "rebase"
	// EventStoreSeed seeds the fetch with N packets from the client's
	// store — prefetched, kept by an earlier fetch, or left by a previous
	// process life. One with N = 0 in round Round is the drop of those
	// packets as another stream's, so the last one's N is always the
	// fetch's StoredPackets.
	EventStoreSeed = "store-seed"
	// EventStop is the client telling the transmitter to stop early
	// (relevance threshold reached).
	EventStop = "stop"
	// EventDone terminates a completed fetch; EventError (with Note)
	// terminates a failed one.
	EventDone  = "done"
	EventError = "error"
)

// Event is one entry in a fetch timeline. Unused fields stay zero and are
// omitted from JSON, keeping timelines compact and deterministic.
type Event struct {
	// Type is one of the Event* constants.
	Type string `json:"type"`
	// Round is the 1-based transmission round, on round events.
	Round int `json:"round,omitempty"`
	// Seq is the cooked packet sequence number, on packet events.
	Seq int `json:"seq,omitempty"`
	// Gen is the erasure generation, on decode events.
	Gen int `json:"gen,omitempty"`
	// N is a count (frames in a round, packets carried by a rebase,
	// reconnects so far) depending on Type.
	N int `json:"n,omitempty"`
	// Corrupt is the round's CRC-failed frame count, on round-end.
	Corrupt int `json:"corrupt,omitempty"`
	// Value is a ratio (γ, α) depending on Type.
	Value float64 `json:"value,omitempty"`
	// Note carries a short free-form annotation (e.g. the error class).
	Note string `json:"note,omitempty"`
}

// DefaultTraceEvents is the ring capacity used when a Trace is built with
// a non-positive capacity: large enough to hold every event of a
// many-round fetch of a paper-sized document, small enough to bound a
// stuck fetch's footprint.
const DefaultTraceEvents = 4096

// Trace is a bounded per-fetch event timeline. The transport records into
// it from the fetch goroutine; debug endpoints may snapshot it
// concurrently, so access is mutex-guarded (one uncontended lock per
// event — the per-frame cost is dominated by the CRC check by orders of
// magnitude). When the ring fills, the oldest events are overwritten and
// counted in Dropped. All methods are nil-safe, so an untraced fetch
// pays one branch per would-be event.
type Trace struct {
	mu      sync.Mutex
	ring    []Event
	start   int // index of the oldest event
	n       int // events currently held
	dropped int64
}

// NewTrace returns a trace holding up to capacity events (non-positive
// means DefaultTraceEvents).
func NewTrace(capacity int) *Trace {
	if capacity <= 0 {
		capacity = DefaultTraceEvents
	}
	return &Trace{ring: make([]Event, capacity)}
}

// Record appends one event, overwriting the oldest when full. No-op on a
// nil trace.
func (t *Trace) Record(ev Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.n < len(t.ring) {
		t.ring[(t.start+t.n)%len(t.ring)] = ev
		t.n++
	} else {
		t.ring[t.start] = ev
		t.start = (t.start + 1) % len(t.ring)
		t.dropped++
	}
	t.mu.Unlock()
}

// Events returns a copy of the held events, oldest first; nil on a nil
// trace.
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, t.n)
	for i := 0; i < t.n; i++ {
		out[i] = t.ring[(t.start+i)%len(t.ring)]
	}
	return out
}

// Len returns the number of events currently held; zero on nil.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Dropped returns how many events were overwritten after the ring filled.
func (t *Trace) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Reset clears the timeline so one Trace can follow consecutive fetches.
// No-op on nil.
func (t *Trace) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.start, t.n, t.dropped = 0, 0, 0
	t.mu.Unlock()
}

// timeline is the serialized shape of a trace.
type timeline struct {
	Events  []Event `json:"events"`
	Dropped int64   `json:"dropped,omitempty"`
}

// WriteJSON dumps the fetch timeline as indented JSON. The output is a
// pure function of the recorded events — no timestamps, no map iteration
// — so identical fetches serialize byte-identically. Safe on nil.
func (t *Trace) WriteJSON(w io.Writer) error {
	tl := timeline{Events: t.Events(), Dropped: t.Dropped()}
	if tl.Events == nil {
		tl.Events = []Event{}
	}
	data, err := json.MarshalIndent(tl, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
