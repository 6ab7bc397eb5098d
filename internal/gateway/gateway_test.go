package gateway

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"mobweb/internal/core"
	"mobweb/internal/corpus"
	"mobweb/internal/document"
	"mobweb/internal/erasure"
	"mobweb/internal/search"
	"mobweb/internal/textproc"
	"mobweb/internal/transport"
)

func corpusEngine(t *testing.T) *search.Engine {
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

// newGateway fronts a fresh server over the corpus, one that listens
// nowhere: the gateway pipes into it.
func newGateway(t *testing.T) *Handler {
	t.Helper()
	return newGatewayWith(t, transport.ServerOptions{})
}

// newGatewayWith is newGateway with the server built from opts.
func newGatewayWith(t *testing.T, opts transport.ServerOptions) *Handler {
	t.Helper()
	srv, err := transport.NewServer(corpusEngine(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(srv)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// Profiles belong on the private debug listener (obs.DebugHandler), not
// on the gateway's public mux.
func TestGatewayServesNoPprof(t *testing.T) {
	h := newGateway(t)
	if rec := get(t, h, "/debug/pprof/"); rec.Code != http.StatusNotFound {
		t.Fatalf("GET /debug/pprof/ on the gateway = %d, want 404", rec.Code)
	}
}

// TestNewNilEngine: the gateway fronts a server with a document
// collection of its own, not a relay such as the shard front.
func TestNewNilEngine(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("nil server accepted")
	}
	relay := transport.NewBackendServer(nil, transport.ServerOptions{}, time.Second)
	if _, err := New(relay); err == nil {
		t.Error("server without an engine accepted")
	}
}

func TestSearchEndpoint(t *testing.T) {
	h := newGateway(t)
	rec := get(t, h, "/search?q=mobile+web+browsing")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var hits []searchHit
	if err := json.NewDecoder(rec.Body).Decode(&hits); err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 || hits[0].Name != corpus.DraftName {
		t.Errorf("hits = %v", hits)
	}
}

func TestSearchValidation(t *testing.T) {
	h := newGateway(t)
	if rec := get(t, h, "/search"); rec.Code != http.StatusBadRequest {
		t.Errorf("missing q: status %d", rec.Code)
	}
	if rec := get(t, h, "/search?q=x&limit=0"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad limit: status %d", rec.Code)
	}
	if rec := get(t, h, "/search?q=x&limit=abc"); rec.Code != http.StatusBadRequest {
		t.Errorf("non-numeric limit: status %d", rec.Code)
	}
}

func TestSCEndpoint(t *testing.T) {
	h := newGateway(t)
	rec := get(t, h, "/sc/"+corpus.DraftName+"?q=browsing+mobile+web")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var units []unitScore
	if err := json.NewDecoder(rec.Body).Decode(&units); err != nil {
		t.Fatal(err)
	}
	if len(units) < 20 {
		t.Fatalf("only %d units", len(units))
	}
	// Document root first, IC/QIC/MQIC all 1.
	root := units[0]
	if root.Level != "document" || root.IC < 0.999 || root.QIC < 0.999 {
		t.Errorf("root scores %+v", root)
	}
	// Table 1 signature: some unit with QIC 0 but MQIC > 0.
	found := false
	for _, u := range units {
		if u.QIC == 0 && u.MQIC > 0 {
			found = true
		}
	}
	if !found {
		t.Error("no QIC=0/MQIC>0 unit in SC output")
	}
}

func TestSCUnknownDoc(t *testing.T) {
	h := newGateway(t)
	if rec := get(t, h, "/sc/ghost.xml"); rec.Code != http.StatusNotFound {
		t.Errorf("status %d, want 404", rec.Code)
	}
}

func TestDocEndpointRankedStream(t *testing.T) {
	h := newGateway(t)
	rec := get(t, h, "/doc/"+corpus.DraftName+"?q=browsing+mobile+web&lod=section&notion=QIC")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	body, err := io.ReadAll(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	// The body is the receiver's unit stream, which accrues by paragraph
	// whatever the ranking LOD: ranking by section shows as each section's
	// paragraphs arriving together, sections in QIC order. The first must
	// be the query-heavy introduction, not the document-order abstract.
	sc, _ := h.engine.SC(corpus.DraftName)
	section := map[string]string{} // title → label
	sc.Doc().Root.Walk(func(u *document.Unit) bool {
		if u.Level == document.LODSection {
			section[u.Title] = u.Label
		}
		return true
	})
	intro, ft := section["Introduction"], section["Fault-Tolerant Transmission"]
	if intro == "" || ft == "" {
		t.Fatal("expected section titles missing")
	}
	var order []string // top-level label of each streamed unit, runs collapsed
	for _, line := range strings.Split(text, "\n") {
		label, ok := strings.CutPrefix(line, "── paragraph ")
		if !ok {
			continue
		}
		top := label[:strings.IndexByte(label, '.')]
		if len(order) == 0 || order[len(order)-1] != top {
			order = append(order, top)
		}
	}
	if len(order) != len(section) {
		t.Errorf("sections streamed as runs %v, want each of %d sections once", order, len(section))
	}
	if len(order) == 0 || order[0] != intro {
		t.Errorf("first streamed section %v, want the introduction (%s)", order, intro)
	}
	if slices.Index(order, intro) > slices.Index(order, ft) {
		t.Error("QIC ordering did not put the introduction before the FT section")
	}
	if got := rec.Header().Get("X-Document-Title"); !strings.Contains(got, "Weakly-Connected") {
		t.Errorf("title header %q", got)
	}
}

func TestDocEndpointICCutoff(t *testing.T) {
	h := newGateway(t)
	full := get(t, h, "/doc/"+corpus.DraftName+"?q=mobile&lod=paragraph")
	cut := get(t, h, "/doc/"+corpus.DraftName+"?q=mobile&lod=paragraph&ic=0.3")
	if cut.Body.Len() >= full.Body.Len() {
		t.Errorf("ic=0.3 response (%d bytes) not smaller than full (%d bytes)",
			cut.Body.Len(), full.Body.Len())
	}
	if !strings.Contains(cut.Body.String(), "stopped at information content") {
		t.Error("cutoff marker missing")
	}
}

func TestDocEndpointValidation(t *testing.T) {
	h := newGateway(t)
	if rec := get(t, h, "/doc/ghost.xml"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown doc: status %d", rec.Code)
	}
	if rec := get(t, h, "/doc/"+corpus.DraftName+"?lod=chapter"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad lod: status %d", rec.Code)
	}
	if rec := get(t, h, "/doc/"+corpus.DraftName+"?notion=ZIC"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad notion: status %d", rec.Code)
	}
	if rec := get(t, h, "/doc/"+corpus.DraftName+"?ic=2"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad ic: status %d", rec.Code)
	}
	for _, ic := range []string{"0", "nan", "inf", "-inf"} {
		if rec := get(t, h, "/doc/"+corpus.DraftName+"?ic="+ic); rec.Code != http.StatusBadRequest {
			t.Errorf("ic=%s: status %d", ic, rec.Code)
		}
	}
}

func TestDocDefaultsToQICParagraphs(t *testing.T) {
	h := newGateway(t)
	rec := get(t, h, "/doc/mobile-survey.html?q=caching")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "paragraph") {
		t.Error("default LOD is not paragraph")
	}
}

func TestLayoutEndpoint(t *testing.T) {
	h := newGateway(t)
	rec := get(t, h, "/layout/"+corpus.DraftName+"?q=mobile&lod=paragraph&gamma=1.5")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var layout core.Layout
	if err := json.NewDecoder(rec.Body).Decode(&layout); err != nil {
		t.Fatal(err)
	}
	if err := layout.Validate(); err != nil {
		t.Fatalf("served layout invalid: %v", err)
	}
	// The served geometry must bootstrap a working receiver.
	if _, err := core.NewReceiverFromLayout(layout); err != nil {
		t.Fatal(err)
	}
	if layout.N() <= layout.M() {
		t.Errorf("layout N=%d M=%d, expected redundancy", layout.N(), layout.M())
	}
}

func TestLayoutEndpointValidation(t *testing.T) {
	h := newGateway(t)
	if rec := get(t, h, "/layout/ghost.xml"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown doc: status %d", rec.Code)
	}
	if rec := get(t, h, "/layout/"+corpus.DraftName+"?gamma=0.5"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad gamma: status %d", rec.Code)
	}
	if rec := get(t, h, "/layout/"+corpus.DraftName+"?lod=chapter"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad lod: status %d", rec.Code)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	h := newGateway(t)
	req := httptest.NewRequest(http.MethodPost, "/search?q=x", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST status %d, want 405", rec.Code)
	}
}

func TestDocEndpointHonorsRequestContext(t *testing.T) {
	h := newGateway(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the browser is already gone
	req := httptest.NewRequest(http.MethodGet, "/doc/"+corpus.DraftName+"?q=mobile+web", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	// The unit stream must stop for a dead reader: a full document is
	// tens of units; a cancelled request gets none.
	if body := rec.Body.String(); strings.Contains(body, "── ") {
		t.Errorf("cancelled request still streamed units:\n%.200s", body)
	}
}

func TestLayoutEndpointFountain(t *testing.T) {
	h := newGateway(t)
	rec := get(t, h, "/layout/"+corpus.DraftName+"?q=mobile&codec=fountain")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var layout core.Layout
	if err := json.NewDecoder(rec.Body).Decode(&layout); err != nil {
		t.Fatal(err)
	}
	if err := layout.Validate(); err != nil {
		t.Fatalf("served fountain layout invalid: %v", err)
	}
	if layout.Codec != erasure.CodecFountain {
		t.Errorf("layout codec = %v, want fountain", layout.Codec)
	}
	if layout.Seed == 0 {
		t.Error("fountain layout has zero seed")
	}
	// The seed is the content digest: a client cannot choose it, so a
	// seed parameter is ignored like any unknown one.
	for _, seed := range []string{"42", "0"} {
		rec2 := get(t, h, "/layout/"+corpus.DraftName+"?q=mobile&codec=fountain&seed="+seed)
		var layout2 core.Layout
		if err := json.NewDecoder(rec2.Body).Decode(&layout2); err != nil {
			t.Fatalf("seed=%s: status %d: %v", seed, rec2.Code, err)
		}
		if layout2.Seed != layout.Seed {
			t.Errorf("seed=%s served seed %#x, want the digest %#x", seed, layout2.Seed, layout.Seed)
		}
	}
	if rec5 := get(t, h, "/layout/"+corpus.DraftName+"?codec=bogus"); rec5.Code != http.StatusBadRequest {
		t.Errorf("bad codec status %d, want 400", rec5.Code)
	}
}
