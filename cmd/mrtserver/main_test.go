package main

import (
	"bufio"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"mobweb/internal/census"
	"mobweb/internal/core"
	"mobweb/internal/corpus"
	"mobweb/internal/erasure"
	"mobweb/internal/planner"
	"mobweb/internal/search"
	"mobweb/internal/textproc"
	"mobweb/internal/transport"
)

func TestIndexDir(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"a.xml":    `<doc><title>A</title><section><paragraph>alpha beta</paragraph></section></doc>`,
		"b.html":   `<html><body><h1>B</h1><p>gamma delta</p></body></html>`,
		"skip.txt": "plain text ignored",
		"bad.xml":  "", // unparseable; must be skipped, not fatal
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	engine := search.NewEngine(textproc.Options{})
	if err := indexDir(engine, dir); err != nil {
		t.Fatal(err)
	}
	if engine.Len() != 2 {
		t.Errorf("indexed %d documents, want 2", engine.Len())
	}
}

func TestIndexDirMissing(t *testing.T) {
	engine := search.NewEngine(textproc.Options{})
	if err := indexDir(engine, "/nonexistent-dir"); err == nil {
		t.Error("missing directory accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestRunNoDocuments(t *testing.T) {
	if err := run([]string{"-nocorpus"}); err == nil {
		t.Error("empty collection accepted")
	}
}

// TestFlagsMatchCensus holds every flag to its DESIGN.md §22 row.
func TestFlagsMatchCensus(t *testing.T) {
	if err := census.CheckFlags("../../DESIGN.md", newFlagSet(new(options))); err != nil {
		t.Error(err)
	}
}

func TestRunHelpSucceeds(t *testing.T) {
	if err := run([]string{"-h"}); err != nil {
		t.Errorf("run -h: %v", err)
	}
}

// TestShedMaxInflightBuildsTheGate: -shed-max-inflight N admits N fetch
// streams and sheds the next; without it the process has no gate.
func TestShedMaxInflightBuildsTheGate(t *testing.T) {
	if p := startProcess(t); p.gate != nil {
		t.Error("gate built without -shed-max-inflight")
	}
	gate := startProcess(t, "-shed-max-inflight", "2").gate
	for i := 0; i < 2; i++ {
		if _, _, ok := gate.Admit(true); !ok {
			t.Fatalf("stream %d shed under a budget of 2", i+1)
		}
	}
	if _, _, ok := gate.Admit(true); ok {
		t.Error("third stream admitted under a budget of 2")
	}
}

func TestRunBadAlpha(t *testing.T) {
	if err := run([]string{"-alpha", "1.5", "-addr", "127.0.0.1:0"}); err == nil {
		t.Error("alpha > 1 accepted")
	}
}

// startProcess builds what mrtserver serves for args, without listeners.
func startProcess(t *testing.T, args ...string) *process {
	t.Helper()
	o, err := parseFlags(args)
	if err != nil {
		t.Fatal(err)
	}
	p, err := newProcess(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.srv.Close() })
	return p
}

func TestProcessDocRefusedBySearchOnlyTier(t *testing.T) {
	p := startProcess(t, "-capability", "search-only", "-http", "127.0.0.1:0")
	rec := httptest.NewRecorder()
	p.gw.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/doc/"+corpus.DraftName+"?q=mobile", nil))
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Errorf("/doc under -capability search-only: status %d, Retry-After %q; want the tier's 503",
			rec.Code, rec.Header().Get("Retry-After"))
	}
}

func TestProcessLayoutSeedIsTheStreams(t *testing.T) {
	p := startProcess(t, "-codec", "fountain", "-http", "127.0.0.1:0")

	// The TCP fetch header, over a pipe into the process's server: the
	// request /doc's fetch makes for the same URL.
	near, far := net.Pipe()
	defer near.Close()
	if err := p.srv.ServeConn(far); err != nil {
		t.Fatal(err)
	}
	req := transport.Request{Op: "fetch", Doc: corpus.DraftName, Query: "mobile", LOD: "paragraph", Notion: "QIC"}
	w := bufio.NewWriter(near)
	if err := transport.WriteRequest(w, req); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	hdr, err := transport.ReadResponse(bufio.NewReader(near))
	if err != nil || !hdr.OK {
		t.Fatalf("fetch header %+v: %v", hdr, err)
	}

	rec := httptest.NewRecorder()
	p.gw.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/layout/"+corpus.DraftName+"?q=mobile", nil))
	var layout core.Layout
	if err := json.Unmarshal(rec.Body.Bytes(), &layout); err != nil {
		t.Fatalf("/layout status %d: %v", rec.Code, err)
	}
	if layout.Codec != erasure.CodecFountain || layout.Seed != hdr.Layout.Seed {
		t.Errorf("/layout %v seed %#x, the TCP stream %v seed %#x", layout.Codec, layout.Seed, hdr.Layout.Codec, hdr.Layout.Seed)
	}
	// Both are the plan's content digest.
	resolved, err := p.pl.ResolveFrames(planner.Request{Doc: req.Doc, Query: req.Query, LOD: req.LOD, Notion: req.Notion})
	if err != nil {
		t.Fatal(err)
	}
	if want := resolved.Plan.Digest(); hdr.Layout.Seed != want {
		t.Errorf("stream seed %#x, want the plan digest %#x", hdr.Layout.Seed, want)
	}
}
