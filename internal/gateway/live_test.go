package gateway

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"mobweb/internal/channel"
	"mobweb/internal/corpus"
	"mobweb/internal/obs"
	"mobweb/internal/transport"
)

// These tests drive gateway → transport.Client → transport.Server, the
// path -doc-via runs: the stub fetcher elsewhere scripts the transport,
// here it is the real one behind a loopback listener.

// tier is a transmission server on a loopback listener with a metrics
// registry of its own.
type tier struct {
	srv  *transport.Server
	addr string
	reg  *obs.Registry
}

// startTier serves the corpus with opts; wrap, when set, stands between
// the listener and the server (a chaos schedule).
func startTier(t *testing.T, opts transport.ServerOptions, wrap func(net.Listener) net.Listener) tier {
	t.Helper()
	reg := obs.NewRegistry()
	opts.Metrics = reg
	srv, err := transport.NewServer(corpusEngine(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	if wrap != nil {
		ln = wrap(ln)
	}
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		srv.Serve(ln)
	}()
	t.Cleanup(func() {
		srv.Close()
		<-serveDone
	})
	return tier{srv: srv, addr: addr, reg: reg}
}

// dialFetcher is cmd/mrtserver's: one transport connection per request.
// The terminal error of each fetch is kept for the test to inspect.
type dialFetcher struct {
	addr  string
	retry transport.RetryPolicy
	errs  chan error
}

func (d dialFetcher) FetchContext(ctx context.Context, opts transport.FetchOptions) (*transport.FetchResult, error) {
	c, err := transport.Dial(d.addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	c.Timeout = 10 * time.Second
	c.Retry = d.retry
	res, err := c.FetchContext(ctx, opts)
	if d.errs != nil {
		d.errs <- err
	}
	return res, err
}

// dialledGateway is a gateway whose /doc crosses to tr.
func dialledGateway(t *testing.T, tr tier) (*Handler, *obs.Registry) {
	t.Helper()
	return newRemoteGateway(t, dialFetcher{addr: tr.addr})
}

// gate is a fault injector that lets hold frames through to inner and
// then holds the stream — closing blocked — until open is called.
type gate struct {
	inner   transport.FaultInjector
	hold    int
	blocked chan struct{}
	release chan struct{}
	open    func()

	mu sync.Mutex
	n  int
}

// newGate's callers defer open, so that a failed test does not leave the
// server's handler held under the Close its cleanup runs.
func newGate(inner transport.FaultInjector, hold int) *gate {
	g := &gate{inner: inner, hold: hold, blocked: make(chan struct{}), release: make(chan struct{})}
	g.open = sync.OnceFunc(func() { close(g.release) })
	return g
}

func (g *gate) Inject(frame []byte, seq int) ([]byte, bool) {
	g.mu.Lock()
	g.n++
	n := g.n
	g.mu.Unlock()
	if n == g.hold+1 {
		close(g.blocked)
	}
	if n > g.hold {
		<-g.release
	}
	return g.inner.Inject(frame, seq)
}

// oneChannel puts every connection on inj's one channel realisation.
func oneChannel(inj transport.FaultInjector) func() transport.FaultInjector {
	return func() transport.FaultInjector { return inj }
}

// lossy is the seeded Bernoulli α = 0.3 channel.
func lossy(t *testing.T, seed int64) transport.FaultInjector {
	t.Helper()
	model, err := channel.NewBernoulli(0.3, seed)
	if err != nil {
		t.Fatal(err)
	}
	return transport.NewModelInjector(model)
}

// blocks cuts a /doc body into its rule-headed blocks: unit blocks, and
// the terminal line if there is one.
func blocks(body string) []string {
	var out []string
	for _, b := range strings.Split(body, "── ") {
		if b != "" {
			out = append(out, "── "+b)
		}
	}
	return out
}

var bothCodecs = []string{"vandermonde", "fountain"}

// TestDocRequestsRefusedAlike is the one request parser's table: either
// fetcher refuses the same inputs with the same status and message.
func TestDocRequestsRefusedAlike(t *testing.T) {
	local := newGateway(t)
	remote, _ := dialledGateway(t, startTier(t, transport.ServerOptions{}, nil))
	cases := []struct {
		path string
		want int
	}{
		{"/doc/" + corpus.DraftName + "?ic=0", http.StatusBadRequest},
		{"/doc/" + corpus.DraftName + "?ic=-1", http.StatusBadRequest},
		{"/doc/" + corpus.DraftName + "?ic=1.5", http.StatusBadRequest},
		{"/doc/" + corpus.DraftName + "?ic=nan", http.StatusBadRequest},
		{"/doc/" + corpus.DraftName + "?ic=inf", http.StatusBadRequest},
		{"/doc/" + corpus.DraftName + "?ic=x", http.StatusBadRequest},
		{"/doc/" + corpus.DraftName + "?lod=chapter", http.StatusBadRequest},
		{"/doc/" + corpus.DraftName + "?notion=ZIC", http.StatusBadRequest},
		{"/doc/" + corpus.DraftName + "?codec=bogus", http.StatusBadRequest},
		{"/doc/" + corpus.DraftName + "?gamma=0.5", http.StatusBadRequest},
		{"/doc/ghost.xml", http.StatusNotFound},
		{"/doc/ghost.xml?ic=0.4&codec=fountain", http.StatusNotFound},
	}
	for _, tc := range cases {
		l, r := get(t, local, tc.path), get(t, remote, tc.path)
		if l.Code != tc.want || r.Code != tc.want {
			t.Errorf("%s: status %d in process, %d dialled, want %d", tc.path, l.Code, r.Code, tc.want)
		}
		if l.Body.String() != r.Body.String() || l.Body.Len() == 0 {
			t.Errorf("%s: message %q in process, %q dialled", tc.path, l.Body.String(), r.Body.String())
		}
	}
	// The shared half of the parser refuses the same way on /layout.
	for _, q := range []string{"lod=chapter", "notion=ZIC", "codec=bogus", "gamma=0.5"} {
		d, l := get(t, local, "/doc/"+corpus.DraftName+"?"+q), get(t, local, "/layout/"+corpus.DraftName+"?"+q)
		if l.Code != http.StatusBadRequest || l.Body.String() != d.Body.String() {
			t.Errorf("/layout?%s: %d %q, /doc says %q", q, l.Code, l.Body.String(), d.Body.String())
		}
	}
}

// TestDocSameBytesEitherFetcher: on a clean channel the same URL yields
// the same bytes from the in-process fetcher and the dialled one; under
// loss, the same unit blocks, each exactly once.
func TestDocSameBytesEitherFetcher(t *testing.T) {
	local := newGateway(t)
	clean, _ := dialledGateway(t, startTier(t, transport.ServerOptions{}, nil))
	weak, _ := dialledGateway(t, startTier(t, transport.ServerOptions{InjectorFactory: oneChannel(lossy(t, 7))}, nil))
	for _, lod := range []string{"section", "paragraph"} {
		for _, notion := range []string{"IC", "QIC"} {
			for _, codec := range bothCodecs {
				path := "/doc/" + corpus.DraftName + "?q=mobile+web&lod=" + lod + "&notion=" + notion + "&codec=" + codec
				want := get(t, local, path)
				if want.Code != http.StatusOK || len(blocks(want.Body.String())) < 20 {
					t.Fatalf("%s in process: status %d, body %.80q", path, want.Code, want.Body.String())
				}
				got := get(t, clean, path)
				if got.Code != http.StatusOK || got.Body.String() != want.Body.String() {
					t.Errorf("%s: dialled body differs from the in-process one (%d vs %d bytes)", path, got.Body.Len(), want.Body.Len())
				}
				if c := got.Header().Get("X-Mobweb-Codec"); c != codec {
					t.Errorf("%s: X-Mobweb-Codec = %q", path, c)
				}
				lost := get(t, weak, path)
				a, b := blocks(want.Body.String()), blocks(lost.Body.String())
				slices.Sort(a)
				slices.Sort(b)
				if lost.Code != http.StatusOK || !slices.Equal(a, b) {
					t.Errorf("%s under loss: status %d, %d blocks, want the clean channel's %d, each once", path, lost.Code, len(b), len(a))
				}
			}
		}
	}
}

// TestDocProgressive: a unit the gateway has written is in the HTTP
// client's hands while the transport stream behind it is still open — the
// channel holds the stream until the test has read the first block.
func TestDocProgressive(t *testing.T) {
	for _, codec := range bothCodecs {
		t.Run(codec, func(t *testing.T) {
			g := newGate(lossy(t, 7), 40)
			defer g.open()
			h, _ := dialledGateway(t, startTier(t, transport.ServerOptions{InjectorFactory: oneChannel(g)}, nil))
			ts := httptest.NewServer(h)
			defer ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/doc/"+corpus.DraftName+"?q=mobile+web&codec="+codec, nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Mobweb-Codec") != codec {
				t.Fatalf("status %d, codec header %q", resp.StatusCode, resp.Header.Get("X-Mobweb-Codec"))
			}
			// One block: the rule, the text, the blank line.
			br := bufio.NewReader(resp.Body)
			var first string
			for !strings.HasSuffix(first, "\n\n") {
				line, err := br.ReadString('\n')
				if err != nil {
					t.Fatalf("reading the first block (a gateway that buffers never delivers it): %v after %q", err, first)
				}
				first += line
			}
			if !strings.HasPrefix(first, "── paragraph ") {
				t.Errorf("first block %q", first)
			}
			<-g.blocked // the stream is mid-way and stays there
			g.open()
			rest, err := io.ReadAll(br)
			if err != nil {
				t.Fatal(err)
			}
			want := blocks(get(t, newGateway(t), "/doc/"+corpus.DraftName+"?q=mobile+web").Body.String())
			got := blocks(first + string(rest))
			slices.Sort(want)
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Errorf("%d blocks after release, want the document's %d, each once", len(got), len(want))
			}
		})
	}
}

// TestDocICStopsTheStream: ic= reaches the transport as StopAtIC, the
// client says stop, and the server puts fewer frames on the air than a
// full read costs. The stream is paced so the stop has frames to save.
func TestDocICStopsTheStream(t *testing.T) {
	tr := startTier(t, transport.ServerOptions{PacketDelay: time.Millisecond}, nil)
	h, _ := dialledGateway(t, tr)
	framesOut := func() int64 { return tr.reg.Snapshot().Counters["serve.frames_out"] }
	full := get(t, h, "/doc/"+corpus.DraftName+"?q=mobile")
	fullFrames := framesOut()
	cut := get(t, h, "/doc/"+corpus.DraftName+"?q=mobile&ic=0.3")
	cutFrames := framesOut() - fullFrames
	if full.Code != http.StatusOK || cut.Code != http.StatusOK {
		t.Fatalf("status %d full, %d cut", full.Code, cut.Code)
	}
	if strings.Contains(full.Body.String(), "stopped at") {
		t.Error("a full read ends with a stop line")
	}
	last := blocks(cut.Body.String())
	if end := last[len(last)-1]; !strings.HasPrefix(end, "── stopped at information content 0.") || cut.Body.Len() >= full.Body.Len() {
		t.Errorf("ic=0.3 body (%d of %d bytes) ends %q", cut.Body.Len(), full.Body.Len(), end)
	}
	if cutFrames >= fullFrames || cutFrames == 0 {
		t.Errorf("ic=0.3 cost %d frames, a full read %d", cutFrames, fullFrames)
	}
	want := get(t, newGateway(t), "/doc/"+corpus.DraftName+"?q=mobile&ic=0.3")
	if cut.Body.String() != want.Body.String() {
		t.Errorf("ic=0.3 dialled:\n%s\nin process:\n%s", cut.Body.String(), want.Body.String())
	}
}

// TestDocConnectionKilled: a link that dies with reconnection off is a
// 502 while nothing is written, and a terminal line — never a silent
// partial — once the first unit has gone out.
func TestDocConnectionKilled(t *testing.T) {
	for _, tc := range []struct {
		name      string
		killAfter int // bytes the server may write
		status    int
	}{
		{"before the first unit", 64, http.StatusBadGateway},
		{"after the first flush", 6000, http.StatusOK},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := startTier(t, transport.ServerOptions{}, func(ln net.Listener) net.Listener {
				return transport.NewChaosListener(ln, transport.ChaosPolicy{KillAfterMin: tc.killAfter, KillAfterMax: tc.killAfter})
			})
			h, reg := newRemoteGateway(t, dialFetcher{addr: tr.addr, retry: transport.NoRetry})
			rec := get(t, h, "/doc/"+corpus.DraftName+"?q=mobile")
			if rec.Code != tc.status {
				t.Fatalf("status %d, want %d: %.200s", rec.Code, tc.status, rec.Body.String())
			}
			logged := reg.FetchLog().Recent(0)
			if len(logged) != 1 || logged[0].Err != "disconnected" {
				t.Errorf("fetch log = %+v, want one disconnected record", logged)
			}
			if tc.status != http.StatusOK {
				return
			}
			got := blocks(rec.Body.String())
			if end := got[len(got)-1]; len(got) < 2 || !strings.HasPrefix(end, "── fetch ended: disconnected at information content 0.") || !strings.HasSuffix(end, " ──\n") {
				t.Errorf("%d blocks, ending %q", len(got), end)
			}
		})
	}
}

// TestDocOneGatewayRecordNoGoroutineLeft: either fetcher logs one
// gateway-origin record per request, and the in-process one — a pipe, a
// client and a server handler per request — leaves nothing running.
func TestDocOneGatewayRecordNoGoroutineLeft(t *testing.T) {
	baseline := runtime.NumGoroutine()
	local, localReg := newObservedGateway(t)
	for _, q := range []string{"", "?ic=0.3", "?codec=fountain", "?lod=bogus"} {
		get(t, local, "/doc/"+corpus.DraftName+q)
	}
	get(t, local, "/doc/ghost.xml")
	// The registry is the server's too: each stream the fetches opened
	// logs a server-origin record beside the gateway's; a refusal does not.
	byOrigin := map[string][]obs.FetchRecord{}
	for _, rec := range localReg.FetchLog().Recent(0) {
		byOrigin[rec.Origin] = append(byOrigin[rec.Origin], rec)
	}
	gw := byOrigin["gateway"]
	if len(gw) != 4 || len(byOrigin["server"]) != 3 || len(byOrigin) != 2 { // the bad lod never fetched
		t.Errorf("in-process records %+v, want 4 from the gateway and 3 from the server", byOrigin)
	} else if gw[0].Err != "refused" || gw[1].Err != "" {
		t.Errorf("newest gateway records %+v, want a refusal then a clean fetch", gw[:2])
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after in-process requests, want %d:\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}

	remote, remoteReg := dialledGateway(t, startTier(t, transport.ServerOptions{}, nil))
	get(t, remote, "/doc/"+corpus.DraftName)
	if logged := remoteReg.FetchLog().Recent(0); len(logged) != 1 || logged[0].Origin != "gateway" || logged[0].Err != "" {
		t.Errorf("dialled records %+v, want one clean gateway record", logged)
	}
}

// slot is an admitter with room for everyone that closes released when
// the first fetch gives its slot back.
type slot struct{ released chan struct{} }

func (s slot) Admit(bool) (func(), time.Duration, bool) {
	return sync.OnceFunc(func() { close(s.released) }), 0, true
}

// flushSignal is a response recorder that closes flushed at the first
// Flush. The recorder's body is read only after the handler returned.
type flushSignal struct {
	*httptest.ResponseRecorder
	once    sync.Once
	flushed chan struct{}
}

func (f *flushSignal) Flush() { f.once.Do(func() { close(f.flushed) }) }

// TestDocCancelReleasesTheTier: the browser going away mid-stream cancels
// the transport fetch, which gives the replica back its handler and its
// admission slot instead of running to the last packet.
func TestDocCancelReleasesTheTier(t *testing.T) {
	g := newGate(transport.NopInjector{}, 20)
	defer g.open()
	adm := slot{released: make(chan struct{})}
	tr := startTier(t, transport.ServerOptions{InjectorFactory: oneChannel(g), Admission: adm}, nil)
	errs := make(chan error, 1)
	h, _ := newRemoteGateway(t, dialFetcher{addr: tr.addr, errs: errs})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := &flushSignal{ResponseRecorder: httptest.NewRecorder(), flushed: make(chan struct{})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/doc/"+corpus.DraftName+"?q=mobile", nil).WithContext(ctx))
	}()
	<-rec.flushed // the first unit is out
	<-g.blocked   // and the stream is held mid-way
	cancel()
	if err := <-errs; !errors.Is(err, context.Canceled) {
		t.Errorf("fetch returned %v, want context.Canceled", err)
	}
	<-done
	if body := rec.Body.String(); !strings.Contains(body, "── fetch ended: canceled at information content 0.") {
		t.Errorf("body does not end in a terminal line:\n%s", body)
	}
	// The held frame goes nowhere: the client hung up.
	g.open()
	<-adm.released
	deadline := time.Now().Add(5 * time.Second)
	for tr.reg.Snapshot().Gauges["serve.conns_active"] != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("serve.conns_active = %d after the cancel, want 0", tr.reg.Snapshot().Gauges["serve.conns_active"])
		}
		runtime.Gosched()
	}
}
