package main

import (
	"bytes"
	"io"
	"net"
	"strings"
	"testing"

	"mobweb/internal/census"
	"mobweb/internal/corpus"
	"mobweb/internal/search"
	"mobweb/internal/textproc"
	"mobweb/internal/transport"
)

// startServer brings up a corpus-backed server and returns its address.
func startServer(t *testing.T) string {
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
	srv, err := transport.NewServer(engine, transport.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})
	return ln.Addr().String()
}

func TestRunSearch(t *testing.T) {
	addr := startServer(t)
	var buf bytes.Buffer
	if err := run(&buf, []string{"-addr", addr, "-search", "mobile web browsing"}, strings.NewReader("")); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), corpus.DraftName) {
		t.Errorf("search output missing the draft: %s", buf.String())
	}
}

func TestRunFetchFull(t *testing.T) {
	addr := startServer(t)
	var buf bytes.Buffer
	err := run(&buf, []string{
		"-addr", addr,
		"-doc", corpus.DraftName,
		"-query", "mobile web",
		"-lod", "section",
		"-notion", "QIC",
		"-quiet",
	}, strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "document reconstructed") {
		t.Errorf("fetch did not reconstruct: %s", out)
	}
}

func TestRunFetchStopAt(t *testing.T) {
	addr := startServer(t)
	var buf bytes.Buffer
	err := run(&buf, []string{
		"-addr", addr,
		"-doc", corpus.DraftName,
		"-stopat", "0.3",
	}, strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "stopped early") {
		t.Errorf("fetch did not stop early: %s", out)
	}
	if !strings.Contains(out, "── unit") {
		t.Error("no progressive rendering in non-quiet mode")
	}
}

func TestRunNeedsTarget(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"-addr", "127.0.0.1:1"}, strings.NewReader("")); err == nil {
		t.Error("missing -search/-doc accepted")
	}
}

func TestRunBadLODAndNotion(t *testing.T) {
	addr := startServer(t)
	var buf bytes.Buffer
	if err := run(&buf, []string{"-addr", addr, "-doc", "x", "-lod", "chapter"}, strings.NewReader("")); err == nil {
		t.Error("bad lod accepted")
	}
	if err := run(&buf, []string{"-addr", addr, "-doc", "x", "-notion", "ZIC"}, strings.NewReader("")); err == nil {
		t.Error("bad notion accepted")
	}
}

func TestRunUnknownDoc(t *testing.T) {
	addr := startServer(t)
	var buf bytes.Buffer
	if err := run(&buf, []string{"-addr", addr, "-doc", "missing.xml", "-quiet"}, strings.NewReader("")); err == nil {
		t.Error("unknown document accepted")
	}
}

func TestWrap(t *testing.T) {
	out := wrap("one two three four five six seven eight nine ten", 15)
	for _, line := range strings.Split(out, "\n") {
		if len(line) > 16 {
			t.Errorf("wrapped line too long: %q", line)
		}
	}
}

// TestFlagsMatchCensus holds every flag to its DESIGN.md §22 row.
func TestFlagsMatchCensus(t *testing.T) {
	if err := census.CheckFlags("../../DESIGN.md", newFlagSet(new(options))); err != nil {
		t.Error(err)
	}
}

func TestRunHelpSucceeds(t *testing.T) {
	if err := run(io.Discard, []string{"-h"}, strings.NewReader("")); err != nil {
		t.Errorf("run -h: %v", err)
	}
}

// TestCachingFlagReachesTheFetch: the paper's Caching is the default,
// and -caching=false fetches as its NoCaching strategy.
func TestCachingFlagReachesTheFetch(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want bool
	}{{nil, true}, {[]string{"-caching=false"}, false}} {
		var o options
		if err := newFlagSet(&o).Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		opts, err := fetchOptions(o)
		if err != nil {
			t.Fatal(err)
		}
		if opts.Caching != tc.want {
			t.Errorf("%v: FetchOptions.Caching %v, want %v", tc.args, opts.Caching, tc.want)
		}
	}
}

// TestREPLRefusesFetchFlags: a -repl session fetches with its own
// options, so each fetch flag it would ignore is refused by name — and
// before any dial.
func TestREPLRefusesFetchFlags(t *testing.T) {
	for _, flag := range []string{"-caching=false", "-lod=section", "-notion=IC", "-gamma=2", "-adapt", "-success=0.9", "-query=mobile"} {
		name, _, _ := strings.Cut(flag, "=")
		err := run(io.Discard, []string{"-addr", "127.0.0.1:1", "-repl", flag}, strings.NewReader(""))
		if err == nil || !strings.Contains(err.Error(), name+" ") {
			t.Errorf("-repl %s: error %v, want one naming %s", flag, err, name)
		}
	}
}
