package shard

import (
	"bytes"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mobweb/internal/corpus"
	"mobweb/internal/markup"
	"mobweb/internal/obs"
	"mobweb/internal/search"
	"mobweb/internal/textproc"
	"mobweb/internal/transport"
)

// testReplica is one backend of a test fleet, with enough handles to
// kill and restart it mid-test.
type testReplica struct {
	t    *testing.T
	name string
	addr string

	mu        sync.Mutex
	srv       *transport.Server
	serveDone chan struct{}

	capability  *transport.CapabilityState
	reg         *obs.Registry
	metricsSrv  *httptest.Server
	metricsAddr string
	sopts       transport.ServerOptions
	engine      func(*testing.T) *search.Engine // what each life indexes
}

// newEngine indexes the embedded corpus; every replica gets its own
// engine over the same corpus, so all replicas build identical plans.
func newEngine(t *testing.T) *search.Engine {
	t.Helper()
	engine := search.NewEngine(textproc.Options{})
	docs, err := corpus.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		if err := engine.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	return engine
}

// editedEngine indexes the corpus with the draft's first "mobile"
// changed to "nobile": a replica whose corpus drifted by an edit that
// keeps the document's length and units.
func editedEngine(t *testing.T) *search.Engine {
	t.Helper()
	engine := search.NewEngine(textproc.Options{})
	docs, err := corpus.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := corpus.Raw(corpus.DraftName)
	if err != nil {
		t.Fatal(err)
	}
	edited, err := markup.ParseXML(bytes.NewReader(bytes.Replace(raw, []byte("mobile"), []byte("nobile"), 1)),
		corpus.DraftName, markup.DefaultTagMap())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		if d.Name == corpus.DraftName {
			d = edited
		}
		if err := engine.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	return engine
}

// startReplica boots one replica on a fresh loopback port with its own
// metrics endpoint and capability state.
func startReplica(t *testing.T, name string, sopts transport.ServerOptions) *testReplica {
	t.Helper()
	return startReplicaOver(t, name, sopts, newEngine)
}

// startReplicaOver is startReplica over the documents engine indexes.
func startReplicaOver(t *testing.T, name string, sopts transport.ServerOptions, engine func(*testing.T) *search.Engine) *testReplica {
	t.Helper()
	r := &testReplica{t: t, name: name, capability: transport.NewCapabilityState(transport.CapFull), reg: obs.NewRegistry(), engine: engine}
	sopts.Name = name
	sopts.Capability = r.capability
	sopts.Metrics = r.reg
	r.sopts = sopts
	r.metricsSrv = httptest.NewServer(obs.MetricsHandler(r.reg))
	r.metricsAddr = strings.TrimPrefix(r.metricsSrv.URL, "http://")
	t.Cleanup(r.metricsSrv.Close)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r.addr = ln.Addr().String()
	r.serve(ln)
	t.Cleanup(func() { r.Kill() })
	return r
}

// serve boots a fresh server on the given listener.
func (r *testReplica) serve(ln net.Listener) {
	r.t.Helper()
	srv, err := transport.NewServer(r.engine(r.t), r.sopts)
	if err != nil {
		r.t.Fatal(err)
	}
	done := make(chan struct{})
	r.mu.Lock()
	r.srv = srv
	r.serveDone = done
	r.mu.Unlock()
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
}

// Kill stops the replica: every live stream dies and further dials are
// refused. Idempotent.
func (r *testReplica) Kill() {
	r.mu.Lock()
	srv, done := r.srv, r.serveDone
	r.srv = nil
	r.mu.Unlock()
	if srv == nil {
		return
	}
	srv.Close()
	<-done
}

// Restart brings a killed replica back on its original address.
func (r *testReplica) Restart() {
	r.t.Helper()
	ln, err := net.Listen("tcp", r.addr)
	if err != nil {
		r.t.Fatalf("restart %s: %v", r.name, err)
	}
	r.serve(ln)
}

// Replica returns the replica's fleet entry.
func (r *testReplica) Replica() Replica {
	return Replica{Name: r.name, Addr: r.addr, MetricsAddr: r.metricsAddr}
}

// testFleet is a front over n replicas plus a connected client factory.
type testFleet struct {
	replicas []*testReplica
	front    *Front
	frontReg *obs.Registry
	addr     string
	ring     *Ring
}

// startFleet boots n replicas and a front over them. sopts seeds every
// replica's server options (name/capability/metrics are overridden per
// replica); fopts seeds the front (replicas/metrics are filled in).
func startFleet(t *testing.T, n int, sopts transport.ServerOptions, fopts Options) *testFleet {
	t.Helper()
	replicas := make([]*testReplica, n)
	for i := 0; i < n; i++ {
		replicas[i] = startReplica(t, string(rune('a'+i))+"-replica", sopts)
	}
	return startFrontOver(t, replicas, fopts)
}

// startFrontOver boots a front over already-running replicas (which may
// have heterogeneous server options).
func startFrontOver(t *testing.T, replicas []*testReplica, fopts Options) *testFleet {
	t.Helper()
	fl := &testFleet{frontReg: obs.NewRegistry(), replicas: replicas}
	names := make([]string, len(replicas))
	reps := make([]Replica, len(replicas))
	for i, r := range fl.replicas {
		names[i] = r.name
		reps[i] = r.Replica()
	}
	fopts.Replicas = reps
	if fopts.Metrics == nil {
		fopts.Metrics = fl.frontReg
	}
	if fopts.Monitor.Every == 0 {
		// Fast probes keep markdown tests quick without busy-looping.
		fopts.Monitor.Every = 25 * time.Millisecond
	}
	front, err := NewFront(fopts)
	if err != nil {
		t.Fatal(err)
	}
	fl.front = front
	ring, err := NewRing(names)
	if err != nil {
		t.Fatal(err)
	}
	fl.ring = ring

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl.addr = ln.Addr().String()
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		front.Serve(ln)
	}()
	t.Cleanup(func() {
		front.Close()
		<-serveDone
	})
	return fl
}

// client dials the front with a seeded retry policy.
func (fl *testFleet) client(t *testing.T) *transport.Client {
	t.Helper()
	c, err := transport.Dial(fl.addr)
	if err != nil {
		t.Fatal(err)
	}
	c.Timeout = 10 * time.Second
	c.Retry = transport.RetryPolicy{Seed: 1}
	t.Cleanup(func() { c.Close() })
	return c
}

// home returns the index of the replica owning doc on the ring.
func (fl *testFleet) home(doc string) int { return home(fl.ring, doc) }

// counter reads a front counter by name.
func (fl *testFleet) counter(name string) int64 {
	snap := fl.frontReg.Snapshot()
	return snap.Counters[name]
}

// singleServerBody fetches doc directly from one replica — the
// reference bytes re-routed fetches must match.
func singleServerBody(t *testing.T, r *testReplica, doc string) []byte {
	t.Helper()
	c, err := transport.Dial(r.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Timeout = 10 * time.Second
	res, err := c.Fetch(transport.FetchOptions{Doc: doc, Caching: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Body == nil {
		t.Fatal("single-server fetch did not reconstruct")
	}
	return res.Body
}

// metricsFailer wraps a registry handler so tests can force scrape
// failures without tearing down the HTTP server.
type metricsFailer struct {
	mu      sync.Mutex
	failing bool
	inner   http.Handler
}

func (m *metricsFailer) SetFailing(v bool) {
	m.mu.Lock()
	m.failing = v
	m.mu.Unlock()
}

func (m *metricsFailer) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	m.mu.Lock()
	failing := m.failing
	m.mu.Unlock()
	if failing {
		http.Error(w, "induced failure", http.StatusInternalServerError)
		return
	}
	m.inner.ServeHTTP(w, req)
}
