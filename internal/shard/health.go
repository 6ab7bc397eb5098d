package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"mobweb/internal/obs"
	"mobweb/internal/transport"
)

// Replica names one backend of the fleet.
type Replica struct {
	// Name is the replica's stable identity — the key it is hashed onto
	// the ring under and the value it reports in the Replica wire field.
	Name string
	// Addr is the transport (TCP) address fetches are proxied to.
	Addr string
	// MetricsAddr, when set, is the HTTP address of the replica's
	// /debug/metrics endpoint; the health checker scrapes it for the
	// capability tier on top of the TCP liveness dial of Addr. Empty
	// means liveness-only probing, reported as CapFull.
	MetricsAddr string
}

// State is a replica's health as seen by the front tier.
type State int

const (
	// StateHealthy replicas take new fetches.
	StateHealthy State = iota
	// StateSuspect replicas failed a recent probe but not enough of them
	// to mark down; they still take fetches (the stream itself will
	// prove them out) but a second opinion is pending.
	StateSuspect
	// StateDown replicas are routed around entirely until they pass
	// MonitorOptions.UpAfter consecutive probes — hysteresis, so a
	// flapping replica cannot oscillate in and out of the ring.
	StateDown
)

// String returns the state's stable wire name.
func (s State) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateSuspect:
		return "suspect"
	case StateDown:
		return "down"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// MonitorOptions tunes the health checker.
type MonitorOptions struct {
	// Every is the probe period; zero means 500 ms.
	Every time.Duration
	// Timeout bounds one probe (HTTP scrape or TCP dial); zero means 1 s.
	Timeout time.Duration
	// DownAfter is the consecutive-failure count that marks a replica
	// down (the first failure already marks it suspect); zero means 3.
	DownAfter int
	// UpAfter is the consecutive-success count that recovers a down
	// replica; zero means 2.
	UpAfter int
	// Metrics, when set, receives the markdown counter
	// (front.markdowns) and the per-replica health probe ("replicas" on
	// /debug/metrics).
	Metrics *obs.Registry
}

func (o MonitorOptions) withDefaults() MonitorOptions {
	if o.Every <= 0 {
		o.Every = 500 * time.Millisecond
	}
	if o.Timeout <= 0 {
		o.Timeout = time.Second
	}
	if o.DownAfter <= 0 {
		o.DownAfter = 3
	}
	if o.UpAfter <= 0 {
		o.UpAfter = 2
	}
	return o
}

// replicaStatus is one replica's live health record.
type replicaStatus struct {
	state      State
	fails, oks int
	capability transport.Capability
}

// Monitor health-checks a replica fleet: a periodic scrape of each
// replica's /debug/metrics endpoint (liveness + capability tier), plus
// failure reports from the proxy path so a dead replica is marked down
// at traffic speed rather than probe speed. Safe for concurrent use.
type Monitor struct {
	replicas  []Replica
	opts      MonitorOptions
	client    *http.Client
	markdowns *obs.Counter

	mu sync.Mutex
	st []replicaStatus
}

// NewMonitor builds a monitor over the fleet; every replica starts
// healthy at CapFull (optimistic — the first probe corrects it).
func NewMonitor(replicas []Replica, opts MonitorOptions) *Monitor {
	opts = opts.withDefaults()
	m := &Monitor{
		replicas:  replicas,
		opts:      opts,
		client:    &http.Client{Timeout: opts.Timeout},
		markdowns: opts.Metrics.Counter("front.markdowns"),
		st:        make([]replicaStatus, len(replicas)),
	}
	opts.Metrics.RegisterProbe("replicas", m.Probe)
	return m
}

// Run probes the fleet every opts.Every until the context ends.
func (m *Monitor) Run(ctx context.Context) {
	ticker := time.NewTicker(m.opts.Every)
	defer ticker.Stop()
	m.CheckOnce(ctx)
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			m.CheckOnce(ctx)
		}
	}
}

// CheckOnce probes every replica once, concurrently; tests call it
// directly to step the monitor without wall-clock scheduling.
func (m *Monitor) CheckOnce(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	var wg sync.WaitGroup
	for i := range m.replicas {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cap, err := m.probe(ctx, m.replicas[i])
			if err != nil {
				m.ReportFailure(i)
			} else {
				m.observeSuccess(i, cap)
			}
		}(i)
	}
	wg.Wait()
}

// probe checks one replica: a TCP dial of the transport address proves
// the serving socket is alive, and an HTTP scrape of the metrics
// endpoint (when configured) reads the capability tier. Both must
// succeed — a replica whose metrics endpoint answers but whose serving
// socket is dead is down, not healthy.
func (m *Monitor) probe(ctx context.Context, r Replica) (transport.Capability, error) {
	d := net.Dialer{Timeout: m.opts.Timeout}
	conn, err := d.DialContext(ctx, "tcp", r.Addr)
	if err != nil {
		return transport.CapFull, err
	}
	conn.Close()
	if r.MetricsAddr == "" {
		return transport.CapFull, nil
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+r.MetricsAddr+"/debug/metrics", nil)
	if err != nil {
		return transport.CapFull, err
	}
	resp, err := m.client.Do(req)
	if err != nil {
		return transport.CapFull, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return transport.CapFull, fmt.Errorf("shard: %s: metrics scrape status %d", r.Name, resp.StatusCode)
	}
	// Only the capability probe matters here; the rest of the snapshot
	// is ignored. A replica that predates capability reporting (no such
	// probe) is CapFull.
	var snap struct {
		Probes struct {
			Capability struct {
				Mode string `json:"mode"`
			} `json:"capability"`
		} `json:"probes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return transport.CapFull, err
	}
	cap, err := transport.ParseCapability(snap.Probes.Capability.Mode)
	if err != nil {
		return transport.CapFull, err
	}
	return cap, nil
}

// ReportFailure records a failed probe or a proxy-observed failure (dial
// refused, stream died) against a replica. Both feed one hysteresis, so
// traffic marks a dead replica down without waiting for the next probe
// tick.
func (m *Monitor) ReportFailure(i int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := &m.st[i]
	st.fails++
	st.oks = 0
	switch {
	case st.state == StateHealthy:
		st.state = StateSuspect
	case st.state == StateSuspect && st.fails >= m.opts.DownAfter:
		st.state = StateDown
		m.markdowns.Inc()
	}
}

func (m *Monitor) observeSuccess(i int, cap transport.Capability) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := &m.st[i]
	st.oks++
	st.fails = 0
	st.capability = cap
	switch st.state {
	case StateSuspect:
		st.state = StateHealthy
	case StateDown:
		if st.oks >= m.opts.UpAfter {
			st.state = StateHealthy
		}
	}
}

// Status returns a replica's current health state and capability tier.
func (m *Monitor) Status(i int) (State, transport.Capability) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.st[i].state, m.st[i].capability
}

// Usable reports whether the proxy may route a fetch to the replica:
// anything not marked down. Suspect replicas still serve — the stream
// itself is the cheapest probe — and a failed stream ends in a resume
// that the ring walk routes on.
func (m *Monitor) Usable(i int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.st[i].state != StateDown
}

// Aggregate returns the fleet's best capability tier among replicas not
// marked down, or CapDown when every replica is. This is what the front
// tier reports as its own capability.
func (m *Monitor) Aggregate() transport.Capability {
	m.mu.Lock()
	defer m.mu.Unlock()
	best := transport.CapDown
	for i := range m.st {
		if m.st[i].state == StateDown {
			continue
		}
		if m.st[i].capability < best {
			best = m.st[i].capability
		}
	}
	return best
}

// replicaHealth is the per-replica payload of the "replicas" probe.
type replicaHealth struct {
	State      string `json:"state"`
	Capability string `json:"capability"`
}

// Probe returns the scrape-time payload for the "replicas" probe on the
// front tier's /debug/metrics: each replica's health state and
// capability tier, keyed by name (maps marshal with sorted keys, so the
// snapshot is deterministically ordered).
func (m *Monitor) Probe() any {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]replicaHealth, len(m.replicas))
	for i, r := range m.replicas {
		out[r.Name] = replicaHealth{
			State:      m.st[i].state.String(),
			Capability: m.st[i].capability.String(),
		}
	}
	return out
}
