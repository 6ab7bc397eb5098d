package shard

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mobweb/internal/obs"
	"mobweb/internal/transport"
)

// startMetricsEndpoint serves a replica-shaped /debug/metrics with a
// togglable failure mode and a live capability state.
func startMetricsEndpoint(t *testing.T, cap *transport.CapabilityState) (addr string, failer *metricsFailer) {
	t.Helper()
	reg := obs.NewRegistry()
	reg.RegisterProbe("capability", cap.Probe)
	failer = &metricsFailer{inner: obs.MetricsHandler(reg)}
	srv := httptest.NewServer(failer)
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://"), failer
}

func TestMonitorScrapesCapability(t *testing.T) {
	cap := transport.NewCapabilityState(transport.CapFetchDegraded)
	addr, _ := startMetricsEndpoint(t, cap)
	m := NewMonitor([]Replica{{Name: "r0", Addr: addr, MetricsAddr: addr}}, MonitorOptions{})
	m.CheckOnce(context.Background())
	state, got := m.Status(0)
	if state != StateHealthy {
		t.Fatalf("state = %v, want healthy", state)
	}
	if got != transport.CapFetchDegraded {
		t.Fatalf("capability = %v, want fetch-degraded", got)
	}
	cap.Set(transport.CapSearchOnly)
	m.CheckOnce(context.Background())
	if _, got := m.Status(0); got != transport.CapSearchOnly {
		t.Fatalf("capability after tier change = %v, want search-only", got)
	}
}

func TestMonitorHysteresis(t *testing.T) {
	cap := transport.NewCapabilityState(transport.CapFull)
	addr, failer := startMetricsEndpoint(t, cap)
	reg := obs.NewRegistry()
	m := NewMonitor([]Replica{{Name: "r0", Addr: addr, MetricsAddr: addr}},
		MonitorOptions{DownAfter: 3, UpAfter: 2, Metrics: reg})
	ctx := context.Background()

	m.CheckOnce(ctx)
	if st, _ := m.Status(0); st != StateHealthy {
		t.Fatalf("initial state = %v, want healthy", st)
	}

	// One failure marks suspect, not down; the replica keeps serving.
	failer.SetFailing(true)
	m.CheckOnce(ctx)
	if st, _ := m.Status(0); st != StateSuspect {
		t.Fatalf("after 1 failure state = %v, want suspect", st)
	}
	if !m.Usable(0) {
		t.Fatal("suspect replica not usable")
	}

	// A single success recovers a suspect immediately.
	failer.SetFailing(false)
	m.CheckOnce(ctx)
	if st, _ := m.Status(0); st != StateHealthy {
		t.Fatalf("suspect did not recover on success, state = %v", st)
	}

	// DownAfter consecutive failures mark down and count a markdown.
	failer.SetFailing(true)
	for i := 0; i < 3; i++ {
		m.CheckOnce(ctx)
	}
	if st, _ := m.Status(0); st != StateDown {
		t.Fatalf("after 3 failures state = %v, want down", st)
	}
	if m.Usable(0) {
		t.Fatal("down replica still usable")
	}
	if got := reg.Snapshot().Counters["front.markdowns"]; got != 1 {
		t.Fatalf("front.markdowns = %d, want 1", got)
	}

	// Recovery needs UpAfter consecutive successes — hysteresis.
	failer.SetFailing(false)
	m.CheckOnce(ctx)
	if st, _ := m.Status(0); st != StateDown {
		t.Fatalf("one success recovered a down replica, state = %v", st)
	}
	m.CheckOnce(ctx)
	if st, _ := m.Status(0); st != StateHealthy {
		t.Fatalf("after 2 successes state = %v, want healthy", st)
	}
	// No second markdown was counted for the single down transition.
	if got := reg.Snapshot().Counters["front.markdowns"]; got != 1 {
		t.Fatalf("front.markdowns after recovery = %d, want 1", got)
	}
}

func TestMonitorReportFailureFeedsHysteresis(t *testing.T) {
	cap := transport.NewCapabilityState(transport.CapFull)
	addr, _ := startMetricsEndpoint(t, cap)
	m := NewMonitor([]Replica{{Name: "r0", Addr: addr, MetricsAddr: addr}}, MonitorOptions{DownAfter: 2})
	m.ReportFailure(0)
	if st, _ := m.Status(0); st != StateSuspect {
		t.Fatalf("after proxy failure report state = %v, want suspect", st)
	}
	m.ReportFailure(0)
	if st, _ := m.Status(0); st != StateDown {
		t.Fatalf("after 2 proxy failure reports state = %v, want down", st)
	}
}

// TestMonitorUpAfter: a down replica stays down until UpAfter probes in
// a row succeed.
func TestMonitorUpAfter(t *testing.T) {
	cap := transport.NewCapabilityState(transport.CapFull)
	addr, _ := startMetricsEndpoint(t, cap)
	m := NewMonitor([]Replica{{Name: "r0", Addr: addr, MetricsAddr: addr}}, MonitorOptions{DownAfter: 2, UpAfter: 3})
	m.ReportFailure(0)
	m.ReportFailure(0)
	for i := 1; i <= 3; i++ {
		m.CheckOnce(context.Background())
		want := StateDown
		if i == 3 {
			want = StateHealthy
		}
		if st, _ := m.Status(0); st != want {
			t.Fatalf("after %d successes state = %v, want %v", i, st, want)
		}
	}
}

func TestMonitorAggregate(t *testing.T) {
	capA := transport.NewCapabilityState(transport.CapSearchOnly)
	capB := transport.NewCapabilityState(transport.CapFetchDegraded)
	addrA, _ := startMetricsEndpoint(t, capA)
	addrB, failB := startMetricsEndpoint(t, capB)
	m := NewMonitor([]Replica{
		{Name: "a", Addr: addrA, MetricsAddr: addrA},
		{Name: "b", Addr: addrB, MetricsAddr: addrB},
	}, MonitorOptions{DownAfter: 1})
	ctx := context.Background()
	m.CheckOnce(ctx)
	if got := m.Aggregate(); got != transport.CapFetchDegraded {
		t.Fatalf("aggregate = %v, want fetch-degraded (the best tier)", got)
	}
	// Mark the better replica down: the aggregate falls to search-only.
	failB.SetFailing(true)
	m.CheckOnce(ctx)
	m.CheckOnce(ctx)
	if got := m.Aggregate(); got != transport.CapSearchOnly {
		t.Fatalf("aggregate with best replica down = %v, want search-only", got)
	}
}

func TestMonitorProbePayload(t *testing.T) {
	cap := transport.NewCapabilityState(transport.CapClearPrefixOnly)
	addr, _ := startMetricsEndpoint(t, cap)
	m := NewMonitor([]Replica{{Name: "r0", Addr: addr, MetricsAddr: addr}}, MonitorOptions{})
	m.CheckOnce(context.Background())
	payload, ok := m.Probe().(map[string]replicaHealth)
	if !ok {
		t.Fatalf("probe payload has type %T", m.Probe())
	}
	got := payload["r0"]
	if got.State != "healthy" || got.Capability != "clear-prefix" {
		t.Fatalf("probe payload = %+v", got)
	}
}

func TestMonitorTCPFallback(t *testing.T) {
	// No metrics endpoint: liveness comes from a TCP dial of the
	// transport address and capability defaults to full.
	cap := transport.NewCapabilityState(transport.CapSearchOnly)
	addr, _ := startMetricsEndpoint(t, cap) // any live TCP endpoint works
	m := NewMonitor([]Replica{{Name: "r0", Addr: addr}}, MonitorOptions{})
	m.CheckOnce(context.Background())
	state, got := m.Status(0)
	if state != StateHealthy {
		t.Fatalf("state = %v, want healthy", state)
	}
	if got != transport.CapFull {
		t.Fatalf("TCP-probed capability = %v, want full (unknowable without a scrape)", got)
	}
}

// TestMonitorProbesConcurrently: each replica's metrics endpoint answers
// only once the other's has been asked, so the two probes of one check
// must be in flight together. A monitor that serialized them — a lock
// held across the scrape, say — would leave the first one waiting until
// its timeout and mark that replica suspect.
func TestMonitorProbesConcurrently(t *testing.T) {
	cap := transport.NewCapabilityState(transport.CapFull)
	reg := obs.NewRegistry()
	reg.RegisterProbe("capability", cap.Probe)
	metrics := obs.MetricsHandler(reg)
	asked := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	var once [2]sync.Once
	var replicas []Replica
	for i := range asked {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			once[i].Do(func() { close(asked[i]) })
			select {
			case <-asked[1-i]:
				metrics.ServeHTTP(w, r)
			case <-r.Context().Done():
			}
		}))
		t.Cleanup(srv.Close)
		addr := strings.TrimPrefix(srv.URL, "http://")
		replicas = append(replicas, Replica{Name: fmt.Sprintf("r%d", i), Addr: addr, MetricsAddr: addr})
	}
	m := NewMonitor(replicas, MonitorOptions{Timeout: 10 * time.Second})
	m.CheckOnce(context.Background())
	for i := range replicas {
		if st, _ := m.Status(i); st != StateHealthy {
			t.Errorf("replica %d is %v after one check; its probe waited for the other's", i, st)
		}
	}
}
