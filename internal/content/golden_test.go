package content_test

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"mobweb/internal/corpus"
	"mobweb/internal/search"
	"mobweb/internal/textproc"
)

var updateScores = flag.Bool("update", false, "rewrite testdata/scores.golden")

// goldenQueries are the queries scores.golden pins, after the empty one:
// a multi-keyword query, a repeated keyword, and one whose keywords only
// some corpus documents contain.
var goldenQueries = []string{"", "browsing mobile web", "web web web mobile", "information retrieval index"}

// scoresText renders the float64 bits of IC, QIC and MQIC for every unit
// of every bundled corpus document under each golden query, then the
// Engine.Search hits of each non-empty query over the corpus.
func scoresText(t *testing.T) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, sc := range corpusSCs(t) {
		for _, query := range goldenQueries {
			s := sc.Evaluate(textproc.QueryVector(query))
			for _, u := range sc.Doc().Units() {
				fmt.Fprintf(&b, "%s %q %d", sc.Doc().Name, query, u.ID)
				for _, n := range notions {
					fmt.Fprintf(&b, " %016x", math.Float64bits(s.Get(n, u.ID)))
				}
				b.WriteByte('\n')
			}
		}
	}
	engine := search.NewEngine(textproc.Options{})
	docs, err := corpus.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range docs {
		if err := engine.Add(doc); err != nil {
			t.Fatal(err)
		}
	}
	for _, query := range goldenQueries[1:] {
		for _, h := range engine.Search(query, -1) {
			fmt.Fprintf(&b, "search %q %s %016x\n", query, h.Name, math.Float64bits(h.Score))
		}
	}
	return b.Bytes()
}

// TestScoresGolden pins every unit score of the bundled corpus, and the
// search scores over it, to the bit. A layout carries each score as its
// raw bytes, so a change to how the index is stored or summed must leave
// this file as it is. Regenerate only for an intended change of the
// scoring formulas:
//
//	go test ./internal/content -run TestScoresGolden -update
func TestScoresGolden(t *testing.T) {
	got := scoresText(t)
	golden := filepath.Join("testdata", "scores.golden")
	if *updateScores {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (write it with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("scores deviate from %s at line %d:\n got  %s\n want %s", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("scores deviate from %s: %d lines, want %d", golden, len(gl), len(wl))
	}
}
