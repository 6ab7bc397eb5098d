package gateway

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"mobweb/internal/corpus"
	"mobweb/internal/obs"
	"mobweb/internal/transport"
)

// newObservedGateway wires one fresh registry into a server and the
// gateway over it, mirroring what cmd/mrtserver does with -metrics-addr.
func newObservedGateway(t *testing.T) (*Handler, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	h := newGatewayWith(t, transport.ServerOptions{Metrics: reg})
	h.SetMetrics(reg)
	return h, reg
}

func TestDebugMetricsEndpoint(t *testing.T) {
	h, _ := newObservedGateway(t)
	// Generate traffic so the snapshot has something to show.
	if rec := get(t, h, "/search?q=mobile"); rec.Code != http.StatusOK {
		t.Fatalf("search status %d", rec.Code)
	}
	if rec := get(t, h, "/doc/"+corpus.DraftName+"?q=mobile"); rec.Code != http.StatusOK {
		t.Fatalf("doc status %d", rec.Code)
	}

	rec := get(t, h, "/debug/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(rec.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	// Two document requests plus this scrape itself.
	if got := snap.Counters["gateway.requests"]; got < 3 {
		t.Errorf("gateway.requests = %d, want >= 3", got)
	}
	// The server registered the planner probe; the /doc request above must
	// have populated the plan cache behind it.
	probe, ok := snap.Probes["planner"]
	if !ok {
		t.Fatal("planner probe missing from snapshot")
	}
	stats, ok := probe.(map[string]any)
	if !ok {
		t.Fatalf("planner probe has shape %T", probe)
	}
	if len(stats) == 0 {
		t.Error("planner probe is empty")
	}
}

func TestDebugMetricsAbsentWithoutSetMetrics(t *testing.T) {
	h := newGateway(t)
	if rec := get(t, h, "/debug/metrics"); rec.Code != http.StatusNotFound {
		t.Errorf("/debug/metrics without SetMetrics: status %d, want 404", rec.Code)
	}
	if rec := get(t, h, "/debug/fetches"); rec.Code != http.StatusNotFound {
		t.Errorf("/debug/fetches without SetMetrics: status %d, want 404", rec.Code)
	}
}

func TestDebugFetchesEndpoint(t *testing.T) {
	h, reg := newObservedGateway(t)
	for i := 0; i < 3; i++ {
		reg.FetchLog().Record(obs.FetchRecord{Doc: fmt.Sprintf("doc-%d.xml", i), Origin: "client", Rounds: i + 1})
	}

	decode := func(t *testing.T, path string) (int64, []obs.FetchRecord) {
		t.Helper()
		rec := get(t, h, path)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", path, rec.Code)
		}
		var payload struct {
			Total   int64             `json:"total"`
			Fetches []obs.FetchRecord `json:"fetches"`
		}
		if err := json.NewDecoder(rec.Body).Decode(&payload); err != nil {
			t.Fatal(err)
		}
		return payload.Total, payload.Fetches
	}

	total, fetches := decode(t, "/debug/fetches")
	if total != 3 || len(fetches) != 3 {
		t.Fatalf("total=%d len=%d, want 3/3", total, len(fetches))
	}
	// Newest first.
	if fetches[0].Doc != "doc-2.xml" || fetches[2].Doc != "doc-0.xml" {
		t.Errorf("order: %s ... %s", fetches[0].Doc, fetches[2].Doc)
	}

	total, fetches = decode(t, "/debug/fetches?n=1")
	if total != 3 || len(fetches) != 1 || fetches[0].Doc != "doc-2.xml" {
		t.Errorf("n=1: total=%d fetches=%v", total, fetches)
	}

	for _, bad := range []string{"0", "-1", "abc", "1.5"} {
		if rec := get(t, h, "/debug/fetches?n="+bad); rec.Code != http.StatusBadRequest {
			t.Errorf("n=%s: status %d, want 400", bad, rec.Code)
		}
	}
}

// TestFrameCacheProbeUnderConcurrentLoad: while several goroutines
// stream cooked frames through /doc (the server's frame cache),
// concurrent scrapes of /debug/metrics must keep returning a well-formed
// framecache probe, and the final snapshot must show real hit traffic.
func TestFrameCacheProbeUnderConcurrentLoad(t *testing.T) {
	h, _ := newObservedGateway(t)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if rec := get(t, h, "/doc/"+corpus.DraftName+"?q=mobile+web"); rec.Code != http.StatusOK {
					t.Errorf("/doc status %d", rec.Code)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				rec := get(t, h, "/debug/metrics")
				if rec.Code != http.StatusOK {
					t.Errorf("metrics scrape status %d", rec.Code)
					return
				}
				var snap obs.Snapshot
				if err := json.NewDecoder(rec.Body).Decode(&snap); err != nil {
					t.Error(err)
					return
				}
				if _, ok := snap.Probes["framecache"]; !ok {
					t.Error("framecache probe missing from snapshot")
					return
				}
			}
		}()
	}
	wg.Wait()

	rec := get(t, h, "/debug/metrics")
	var snap obs.Snapshot
	if err := json.NewDecoder(rec.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	probe, ok := snap.Probes["framecache"].(map[string]any)
	if !ok {
		t.Fatalf("framecache probe has shape %T", snap.Probes["framecache"])
	}
	hits, _ := probe["Hits"].(float64)
	cooks, _ := probe["Cooks"].(float64)
	if cooks == 0 {
		t.Errorf("framecache probe shows no cooks: %v", probe)
	}
	// 40 fetches of one request over a handful of frames: all but the
	// first sweep must hit.
	if hits == 0 {
		t.Errorf("framecache probe shows no hits: %v", probe)
	}
}

// TestParamValidationErrorPaths sweeps the remaining malformed-parameter
// routes not covered by the endpoint-specific validation tests.
func TestParamValidationErrorPaths(t *testing.T) {
	h, _ := newObservedGateway(t)
	for _, tc := range []struct {
		path string
		want int
	}{
		{"/layout/" + corpus.DraftName + "?gamma=abc", http.StatusBadRequest},
		{"/layout/" + corpus.DraftName + "?gamma=-2", http.StatusBadRequest},
		{"/layout/" + corpus.DraftName + "?notion=bogus", http.StatusBadRequest},
		{"/doc/" + corpus.DraftName + "?ic=abc", http.StatusBadRequest},
		{"/doc/" + corpus.DraftName + "?ic=-0.5", http.StatusBadRequest},
		{"/doc/" + corpus.DraftName + "?lod=", http.StatusOK}, // empty means default
	} {
		if rec := get(t, h, tc.path); rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d", tc.path, rec.Code, tc.want)
		}
	}
}

// TestConcurrentScrapeDuringRequests hammers the document endpoints while
// scraping both debug endpoints from other goroutines — the scrape path
// (snapshot under RLock, probes outside it) must hold up under -race.
func TestConcurrentScrapeDuringRequests(t *testing.T) {
	h, reg := newObservedGateway(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				get(t, h, "/doc/"+corpus.DraftName+"?q=mobile+web")
				reg.FetchLog().Record(obs.FetchRecord{Doc: corpus.DraftName, Origin: "client"})
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if rec := get(t, h, "/debug/metrics"); rec.Code != http.StatusOK {
					t.Errorf("metrics scrape status %d", rec.Code)
				}
				if rec := get(t, h, "/debug/fetches?n=5"); rec.Code != http.StatusOK {
					t.Errorf("fetches scrape status %d", rec.Code)
				}
			}
		}()
	}
	wg.Wait()
	snap := reg.Snapshot()
	if got := snap.Counters["gateway.requests"]; got < 300 {
		t.Errorf("gateway.requests = %d, want >= 300", got)
	}
}
