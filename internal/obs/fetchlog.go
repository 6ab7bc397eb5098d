package obs

import "sync"

// DefaultFetchLogSize bounds the fetch log created lazily by
// Registry.FetchLog.
const DefaultFetchLogSize = 64

// FetchRecord summarizes one finished fetch (client side) or one served
// fetch stream (server side) for the /debug/fetches endpoint.
type FetchRecord struct {
	// Doc names the document.
	Doc string `json:"doc"`
	// Origin is "client" for the mobile-side fetch loop or "server" for
	// one transmitted stream.
	Origin string `json:"origin"`
	// Err is the terminal error class, empty on success.
	Err string `json:"err,omitempty"`
	// Rounds, Reconnects, Received, Corrupted and Held mirror the
	// corresponding FetchResult counters (client records).
	Rounds     int `json:"rounds,omitempty"`
	Reconnects int `json:"reconnects,omitempty"`
	Received   int `json:"received,omitempty"`
	Corrupted  int `json:"corrupted,omitempty"`
	Held       int `json:"held,omitempty"`
	// Sent counts frames written to the wire (server records).
	Sent int `json:"sent,omitempty"`
	// Have counts packets the client already held when requesting the
	// stream (server records; selective retransmission).
	Have int `json:"have,omitempty"`
	// Alpha and Gamma are the final §4.4 channel estimate and requested
	// redundancy ratio, when adaptive γ ran. Server records carry the
	// effective γ the stream was planned with (0 means server default),
	// which surfaces the degraded-mode clamp.
	Alpha float64 `json:"alpha,omitempty"`
	Gamma float64 `json:"gamma,omitempty"`
	// Replica names the replica that served the stream (server records)
	// or that the front relayed it from (front-tier records), in a
	// sharded fleet.
	Replica string `json:"replica,omitempty"`
	// Events is the fetch's traced timeline, when the fetch carried a
	// Trace.
	Events []Event `json:"events,omitempty"`
}

// FetchLog is a bounded ring of recent fetch records — the time-series
// behind /debug/fetches that lets an operator correlate a slow fetch
// with the rounds and redials that caused it. Safe for concurrent use;
// all methods are nil-safe.
type FetchLog struct {
	mu    sync.Mutex
	ring  []FetchRecord
	start int
	n     int
	total int64
}

// NewFetchLog returns a log retaining the last capacity records
// (non-positive means DefaultFetchLogSize).
func NewFetchLog(capacity int) *FetchLog {
	if capacity <= 0 {
		capacity = DefaultFetchLogSize
	}
	return &FetchLog{ring: make([]FetchRecord, capacity)}
}

// Record appends one fetch record, evicting the oldest when full. No-op
// on a nil log.
func (l *FetchLog) Record(rec FetchRecord) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if l.n < len(l.ring) {
		l.ring[(l.start+l.n)%len(l.ring)] = rec
		l.n++
	} else {
		l.ring[l.start] = rec
		l.start = (l.start + 1) % len(l.ring)
	}
	l.total++
	l.mu.Unlock()
}

// Recent returns up to max retained records, newest first (max <= 0
// returns all retained); nil on a nil log.
func (l *FetchLog) Recent(max int) []FetchRecord {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.n
	if max > 0 && max < n {
		n = max
	}
	out := make([]FetchRecord, n)
	for i := 0; i < n; i++ {
		out[i] = l.ring[(l.start+l.n-1-i)%len(l.ring)]
	}
	return out
}

// Total returns how many records were ever logged (including evicted
// ones); zero on nil.
func (l *FetchLog) Total() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}
