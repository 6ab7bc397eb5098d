package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mobweb/internal/census"
)

func TestRunEmbeddedDraft(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"-query", "browsing mobile web"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"IC p", "QIC qQ", "MQIC q~Q", "Abstract", "keywords"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	// The signature Table 1 behaviour: some zero-QIC unit.
	if !strings.Contains(out, "0.00000") {
		t.Error("no zero-QIC unit in draft output")
	}
}

func TestRunCustomXMLFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "doc.xml")
	xml := `<doc><title>T</title><section><title>S</title>
	<paragraph>wireless packets for mobile browsing</paragraph></section></doc>`
	if err := os.WriteFile(path, []byte(xml), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(&buf, []string{"-file", path, "-query", "wireless"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "doc.xml") {
		t.Error("output missing file name")
	}
}

func TestRunCustomHTMLFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "page.html")
	html := `<html><body><h1>Page</h1><p>mobile caching content</p></body></html>`
	if err := os.WriteFile(path, []byte(html), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(&buf, []string{"-file", path, "-query", "caching"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Page") {
		t.Error("HTML title missing from output")
	}
}

func TestRunMissingFile(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"-file", "/nonexistent/x.xml"}); err == nil {
		t.Error("missing file accepted")
	}
}

func TestTruncate(t *testing.T) {
	if got := truncate("short", 10); got != "short" {
		t.Errorf("truncate(short) = %q", got)
	}
	if got := truncate("a very long title indeed", 10); len(got) > 12 {
		t.Errorf("truncate returned %q (len %d)", got, len(got))
	}
}

// TestFlagsMatchCensus holds every flag to its DESIGN.md §22 row.
func TestFlagsMatchCensus(t *testing.T) {
	if err := census.CheckFlags("../../DESIGN.md", newFlagSet(new(options))); err != nil {
		t.Error(err)
	}
}

func TestRunHelpSucceeds(t *testing.T) {
	if err := run(io.Discard, []string{"-h"}); err != nil {
		t.Errorf("run -h: %v", err)
	}
}

// TestMinFreqDropsRareKeywords: -minfreq reaches the keyword index, whose
// vocabulary shrinks as the threshold rises (§3.3).
func TestMinFreqDropsRareKeywords(t *testing.T) {
	keywords := func(args ...string) int {
		var buf bytes.Buffer
		if err := run(&buf, args); err != nil {
			t.Fatal(err)
		}
		var n, units, size int
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		if _, err := fmt.Sscanf(lines[len(lines)-1], "%d keywords, %d units, %d bytes", &n, &units, &size); err != nil {
			t.Fatal(err)
		}
		return n
	}
	if all, frequent := keywords(), keywords("-minfreq", "3"); frequent == 0 || frequent >= all {
		t.Errorf("-minfreq 3 keeps %d keywords of %d", frequent, all)
	}
}
