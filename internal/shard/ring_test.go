package shard

import (
	"fmt"
	"testing"
)

// home is the document's home replica: the first of its Successors.
func home(r *Ring, doc string) int { return r.Successors(doc, nil)[0] }

func TestRingPickDeterministic(t *testing.T) {
	names := []string{"a", "b", "c"}
	r1, err := NewRing(names)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRing(names)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		doc := fmt.Sprintf("doc-%d.xml", i)
		if home(r1, doc) != home(r2, doc) {
			t.Fatalf("Successors(%q)[0] differs across identically built rings", doc)
		}
	}
	// Successors is on every fetch's routing path through the front; with
	// a reused buffer it hashes the name in place and searches without a
	// closure.
	buf := make([]int, 0, len(names))
	if allocs := testing.AllocsPerRun(100, func() { buf = r1.Successors("doc-7.xml", buf) }); allocs != 0 {
		t.Errorf("Successors allocates %.0f times per call, want 0", allocs)
	}
}

func TestRingPickStableUnderExtension(t *testing.T) {
	// Hashing by name means adding a replica only moves keys onto the
	// newcomer — a document never moves between surviving replicas.
	small, err := NewRing([]string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	big, err := NewRing([]string{"a", "b", "c", "d"})
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i := 0; i < 500; i++ {
		doc := fmt.Sprintf("doc-%d.xml", i)
		was, now := home(small, doc), home(big, doc)
		if was != now {
			if now != 3 {
				t.Fatalf("Successors(%q)[0] moved from replica %d to %d, not to the new replica", doc, was, now)
			}
			moved++
		}
	}
	if moved == 0 {
		t.Error("adding a replica moved no keys at all")
	}
	if moved > 300 {
		t.Errorf("adding one replica to three moved %d/500 keys, want roughly a quarter", moved)
	}
}

func TestRingBalance(t *testing.T) {
	names := []string{"a", "b", "c"}
	r, err := NewRing(names)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, len(names))
	const docs = 3000
	for i := 0; i < docs; i++ {
		counts[home(r, fmt.Sprintf("doc-%d.xml", i))]++
	}
	for i, c := range counts {
		if c < docs/len(names)/3 {
			t.Errorf("replica %d owns only %d/%d docs; ring badly unbalanced", i, c, docs)
		}
	}
}

func TestRingSuccessorsCoverFleetHomeFirst(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e"}
	r, err := NewRing(names)
	if err != nil {
		t.Fatal(err)
	}
	var buf []int
	for i := 0; i < 100; i++ {
		doc := fmt.Sprintf("doc-%d.xml", i)
		buf = r.Successors(doc, buf)
		if len(buf) != len(names) {
			t.Fatalf("Successors(%q) returned %d replicas, want %d", doc, len(buf), len(names))
		}
		seen := make(map[int]bool)
		for _, idx := range buf {
			if seen[idx] {
				t.Fatalf("Successors(%q) repeats replica %d", doc, idx)
			}
			seen[idx] = true
		}
	}
}

func TestRingRejectsBadFleets(t *testing.T) {
	if _, err := NewRing(nil); err == nil {
		t.Error("empty fleet accepted")
	}
	if _, err := NewRing([]string{"a", "a"}); err == nil {
		t.Error("duplicate replica name accepted")
	}
	if _, err := NewRing([]string{"a", ""}); err == nil {
		t.Error("empty replica name accepted")
	}
	big := make([]string, MaxReplicas+1)
	for i := range big {
		big[i] = fmt.Sprintf("r%d", i)
	}
	if _, err := NewRing(big); err == nil {
		t.Error("oversized fleet accepted")
	}
}

func BenchmarkRingSuccessors(b *testing.B) {
	names := make([]string, 8)
	for i := range names {
		names[i] = fmt.Sprintf("replica-%d", i)
	}
	r, err := NewRing(names)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]int, 0, len(names))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = r.Successors("the-draft-document.xml", buf)
	}
}
