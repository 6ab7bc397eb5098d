package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"mobweb/internal/core"
	"mobweb/internal/document"
	"mobweb/internal/erasure"
)

// testLayout builds a small valid layout for layout-record tests.
func testLayout(t *testing.T) core.Layout { return testLayoutN(t, 6) }

// testLayoutN varies the document size so tests can produce genuinely
// different (but valid) layouts.
func testLayoutN(t *testing.T, paras int) core.Layout {
	t.Helper()
	b := document.NewBuilder()
	b.Open(document.LODSection, "1", "Section 1")
	for p := 0; p < paras; p++ {
		b.Paragraph(fmt.Sprintf("store test paragraph %d mobile web weakly connected browsing", p))
	}
	b.Close()
	doc, err := b.Build("store-test.xml", "Store Test")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.NewPlanWithScores(doc, nil, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return plan.Layout()
}

// forTiers runs fn against both tiers: a store on a fresh directory and
// a memory-only one (dir "").
func forTiers(t *testing.T, fn func(t *testing.T, dir string)) {
	t.Run("disk", func(t *testing.T) { fn(t, t.TempDir()) })
	t.Run("memory", func(t *testing.T) { fn(t, "") })
}

// mustOpen opens a store or fails the test.
func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func payload(seed byte, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = seed + byte(i)
	}
	return p
}

func TestStoreRoundtripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lo := testLayout(t)
	const plan = "doc-a|q|1|2|1.5|0|0"
	if err := s.PutLayout(plan, lo); err != nil {
		t.Fatal(err)
	}
	for seq := 0; seq < 5; seq++ {
		if err := s.PutPacket(plan, erasure.CodecVandermonde, 0, seq, payload(byte(seq), 64)); err != nil {
			t.Fatal(err)
		}
	}
	raw := [][]byte{payload(100, 32), payload(101, 32), payload(102, 32)}
	if err := s.PutGeneration(plan, erasure.CodecVandermonde, 1, raw); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, ok := s2.Layout(plan)
	if !ok || got.BodySize != lo.BodySize || got.N() != lo.N() {
		t.Fatalf("layout lost across reopen: ok=%v", ok)
	}
	pkts := s2.Packets(plan, erasure.CodecVandermonde)
	if len(pkts) != 5 {
		t.Fatalf("packets = %d, want 5", len(pkts))
	}
	for i, p := range pkts {
		if p.Gen != 0 || p.Seq != i || !bytes.Equal(p.Payload, payload(byte(i), 64)) {
			t.Fatalf("packet %d = (%d,%d) %x", i, p.Gen, p.Seq, p.Payload[:4])
		}
	}
	gens := s2.Generations(plan, erasure.CodecVandermonde)
	if len(gens) != 1 || gens[0].Gen != 1 || len(gens[0].Raw) != 3 {
		t.Fatalf("generations = %+v", gens)
	}
	for i, r := range gens[0].Raw {
		if !bytes.Equal(r, raw[i]) {
			t.Fatalf("generation raw %d mismatch", i)
		}
	}
	if st := s2.Stats(); st.RecoveredRecords != 7 || st.TornTails != 0 {
		t.Fatalf("recovery stats = %+v, want 7 records, 0 torn tails", st)
	}
}

func TestStoreDuplicatePutsAreSkipped(t *testing.T) {
	forTiers(t, testDuplicatePutsAreSkipped)
}

func testDuplicatePutsAreSkipped(t *testing.T, dir string) {
	s := mustOpen(t, dir, Options{})
	defer s.Close()
	before := s.Stats().Bytes
	if err := s.PutPacket("p", 0, 0, 3, payload(1, 16)); err != nil {
		t.Fatal(err)
	}
	after1 := s.Stats().Bytes
	if after1 == before {
		t.Fatal("first put wrote nothing")
	}
	// Same key again: skipped, even with different bytes (cooked rows
	// are immutable — the first write wins).
	if err := s.PutPacket("p", 0, 0, 3, payload(9, 16)); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Bytes != after1 {
		t.Fatal("duplicate put appended")
	}
	pkts := s.Packets("p", 0)
	if len(pkts) != 1 || !bytes.Equal(pkts[0].Payload, payload(1, 16)) {
		t.Fatal("duplicate put changed stored bytes")
	}
}

func TestStoreDropTombstoneSurvivesReopen(t *testing.T) {
	forTiers(t, testDropTombstone)
}

func testDropTombstone(t *testing.T, dir string) {
	s := mustOpen(t, dir, Options{})
	if err := s.PutPacket("doomed", 0, 0, 0, payload(1, 16)); err != nil {
		t.Fatal(err)
	}
	if err := s.PutPacket("kept", 0, 0, 0, payload(2, 16)); err != nil {
		t.Fatal(err)
	}
	if err := s.Drop("doomed"); err != nil {
		t.Fatal(err)
	}
	if n := len(s.Packets("doomed", 0)); n != 0 {
		t.Fatalf("dropped plan still has %d packets", n)
	}
	if plans := s.Plans(); len(plans) != 1 || plans[0] != "kept" {
		t.Fatalf("plans = %v", plans)
	}
	s.Close()
	if dir == "" {
		return
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if n := len(s2.Packets("doomed", 0)); n != 0 {
		t.Fatalf("tombstone forgotten on reopen: %d packets", n)
	}
	if n := len(s2.Packets("kept", 0)); n != 1 {
		t.Fatalf("tombstone took innocent plan: %d packets", n)
	}
	if plans := s2.Plans(); len(plans) != 1 || plans[0] != "kept" {
		t.Fatalf("plans = %v", plans)
	}
}

func TestStoreByteBudgetEvictsOldestSegments(t *testing.T) {
	forTiers(t, testByteBudget)
}

func testByteBudget(t *testing.T, dir string) {
	// Tiny segments so several rotate; budget holds about two of them.
	s := mustOpen(t, dir, Options{MaxBytes: 2048, SegmentBytes: 512})
	defer s.Close()
	for seq := 0; seq < 40; seq++ {
		if err := s.PutPacket("p", 0, 0, seq, payload(byte(seq), 128)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Bytes > 2048+512+200 {
		t.Fatalf("store bytes %d far exceed budget", st.Bytes)
	}
	pkts := s.Packets("p", 0)
	if len(pkts) == 0 || len(pkts) == 40 {
		t.Fatalf("eviction kept %d/40 packets, want some but not all", len(pkts))
	}
	// The newest packets must survive (oldest segments evict first).
	last := pkts[len(pkts)-1]
	if last.Seq != 39 {
		t.Fatalf("newest packet evicted: last seq %d", last.Seq)
	}
	// Every surviving record still reads back intact.
	for _, p := range pkts {
		if !bytes.Equal(p.Payload, payload(byte(p.Seq), 128)) {
			t.Fatalf("surviving packet %d corrupted", p.Seq)
		}
	}
}

func TestStoreLayoutChangeShadowsOld(t *testing.T) {
	forTiers(t, testLayoutShadowing)
}

func testLayoutShadowing(t *testing.T, dir string) {
	s := mustOpen(t, dir, Options{})
	lo := testLayout(t)
	if err := s.PutLayout("p", lo); err != nil {
		t.Fatal(err)
	}
	b1 := s.Stats().Bytes
	// Identical layout: skipped.
	if err := s.PutLayout("p", lo); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Bytes != b1 {
		t.Fatal("identical layout re-appended")
	}
	// Changed layout: appended and authoritative, across reopen too.
	lo2 := testLayoutN(t, 14)
	if lo2.BodySize == lo.BodySize {
		t.Fatal("test layouts did not differ")
	}
	if err := s.PutLayout("p", lo2); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Layout("p")
	if !ok || got.BodySize != lo2.BodySize {
		t.Fatalf("layout body = %d ok=%v, want %d", got.BodySize, ok, lo2.BodySize)
	}
	s.Close()
	if dir == "" {
		return
	}
	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	if got, ok := s2.Layout("p"); !ok || got.BodySize != lo2.BodySize {
		t.Fatalf("reopened layout body = %d ok=%v, want %d", got.BodySize, ok, lo2.BodySize)
	}
}

// TestStoreEvictionCarriesLayout is the orphaned-layout regression: a
// plan's layout is written once, into what becomes the oldest segment,
// while its packets keep arriving in newer ones. Evicting that segment
// used to take the layout with it, leaving packets indexed that no
// receiver could be seeded from — on reopen too. Eviction now carries
// the layout forward while the plan has records left.
func TestStoreEvictionCarriesLayout(t *testing.T) {
	forTiers(t, func(t *testing.T, dir string) {
		opts := Options{MaxBytes: 3 << 10, SegmentBytes: 1 << 10}
		s := mustOpen(t, dir, opts)
		lo := testLayout(t)
		if err := s.PutLayout("P", lo); err != nil {
			t.Fatal(err)
		}
		for seq := 0; seq < 40; seq++ {
			if err := s.PutPacket("P", 0, 0, seq, payload(byte(seq), 200)); err != nil {
				t.Fatal(err)
			}
		}
		check := func(s *Store, when string) {
			t.Helper()
			n := len(s.Packets("P", 0))
			if n == 0 || n == 40 {
				t.Fatalf("%s: %d/40 packets left, want eviction to have run", when, n)
			}
			if _, ok := s.Layout("P"); !ok {
				t.Fatalf("%s: layout gone while %d packets are still indexed", when, n)
			}
			if st := s.Stats(); st.Bytes > opts.MaxBytes+opts.SegmentBytes+512 {
				t.Fatalf("%s: %d bytes held, budget %d", when, st.Bytes, opts.MaxBytes)
			}
		}
		check(s, "live")
		s.Close()
		if dir == "" {
			return
		}
		s2 := mustOpen(t, dir, opts)
		defer s2.Close()
		check(s2, "reopened")
	})
}

// TestStoreEvictionDropsLoneLayout: a layout whose plan has nothing left
// is not carried — the budget must not fill with orphaned layouts.
func TestStoreEvictionDropsLoneLayout(t *testing.T) {
	forTiers(t, func(t *testing.T, dir string) {
		s := mustOpen(t, dir, Options{MaxBytes: 3 << 10, SegmentBytes: 1 << 10})
		defer s.Close()
		if err := s.PutLayout("old", testLayout(t)); err != nil {
			t.Fatal(err)
		}
		for seq := 0; seq < 40; seq++ {
			if err := s.PutPacket("new", 0, 0, seq, payload(byte(seq), 200)); err != nil {
				t.Fatal(err)
			}
		}
		if _, ok := s.Layout("old"); ok {
			t.Fatal("a layout with no records left survived eviction")
		}
	})
}

// TestStoreMemoryTierTouchesNoDisk: Open("") works without a directory
// and each memory store starts empty.
func TestStoreMemoryTierTouchesNoDisk(t *testing.T) {
	a := mustOpen(t, "", Options{})
	defer a.Close()
	if a.Dir() != "" {
		t.Fatalf("memory store reports dir %q", a.Dir())
	}
	if err := a.PutPacket("p", 0, 0, 0, payload(1, 16)); err != nil {
		t.Fatal(err)
	}
	b := mustOpen(t, "", Options{})
	defer b.Close()
	if st := b.Stats(); st.Records != 0 || st.Segments != 1 {
		t.Fatalf("fresh memory store stats = %+v", st)
	}
	if len(a.Packets("p", 0)) != 1 {
		t.Fatal("memory store lost its packet")
	}
}

func TestStoreCorruptRecordDroppedOnRead(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutPacket("p", 0, 0, 0, payload(5, 64)); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte on disk behind the index's back.
	seg := filepath.Join(dir, "seg-00000000.log")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[recHeaderLen+len("p")+10] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// The read-side CRC re-check must refuse the record, not return it.
	if pkts := s.Packets("p", 0); len(pkts) != 0 {
		t.Fatalf("CRC-failing packet returned: %d packets", len(pkts))
	}
	s.Close()
}

func TestStoreMetricsProbe(t *testing.T) {
	probe, ok := MetricsProbe().(map[string]int64)
	if !ok {
		t.Fatal("probe shape changed")
	}
	for _, k := range []string{"appends", "recovered", "torn_tails", "evictions"} {
		if _, ok := probe[k]; !ok {
			t.Fatalf("probe missing %q", k)
		}
	}
}

// TestStoreEvictionIsReproducible: one sequence of puts leaves the same
// segment bytes on every run. Eviction re-writes the layouts it carries
// in plan order; in the index's map order the files would differ from
// run to run.
func TestStoreEvictionIsReproducible(t *testing.T) {
	opts := Options{MaxBytes: 8 << 10, SegmentBytes: 4 << 10}
	lo := testLayout(t)
	run := func() map[string][]byte {
		dir := t.TempDir()
		s := mustOpen(t, dir, opts)
		evicted := storeMetrics.evictions.Value()
		plans := []string{"P0", "P1", "P2", "P3", "P4", "P5", "P6", "P7"}
		for _, plan := range plans {
			if err := s.PutLayout(plan, lo); err != nil {
				t.Fatal(err)
			}
		}
		for seq := 0; seq < 12; seq++ {
			for _, plan := range plans {
				if err := s.PutPacket(plan, 0, 0, seq, payload(byte(seq), 100)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if storeMetrics.evictions.Value() == evicted {
			t.Fatal("no segment was evicted")
		}
		s.Close()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		files := make(map[string][]byte)
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = data
		}
		return files
	}
	first := run()
	for i := 1; i < 3; i++ {
		again := run()
		if len(again) != len(first) {
			t.Fatalf("run %d left %d files, run 0 %d", i, len(again), len(first))
		}
		for name, data := range first {
			if !bytes.Equal(again[name], data) {
				t.Fatalf("run %d: %s differs from run 0's", i, name)
			}
		}
	}
}

// TestStoreConcurrentPlansKeepTheirBytes: two goroutines persist rounds
// and read back their own plans on one store, so each one's reads run
// between the other's writes and reads. Every payload and raw packet a
// read returned must hold the bytes stored under its coordinates until
// the end — a read handing out views of a buffer the store reuses fails
// here, and under -race.
func TestStoreConcurrentPlansKeepTheirBytes(t *testing.T) {
	forTiers(t, func(t *testing.T, dir string) {
		s := mustOpen(t, dir, Options{MaxBytes: -1, SegmentBytes: 8 << 10})
		defer s.Close()
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				plan := fmt.Sprintf("plan-%d", w)
				want := func(gen, seq int) []byte { return payload(byte(64*w+8*gen+seq), 48) }
				var got [][]byte // every slice a read returned
				var exp [][]byte // the bytes each must hold
				for r := 0; r < 24; r++ {
					round := make([]Packet, 6)
					for i := range round {
						round[i] = Packet{Gen: r, Seq: i, Payload: want(r, i)}
					}
					if err := s.PutPackets(plan, 0, round); err != nil {
						t.Error(err)
						return
					}
					if err := s.PutGeneration(plan, 0, 100+r, [][]byte{want(100+r, 0), want(100+r, 1)}); err != nil {
						t.Error(err)
						return
					}
					for _, p := range s.Packets(plan, 0) {
						got, exp = append(got, p.Payload), append(exp, want(p.Gen, p.Seq))
					}
					for _, g := range s.Generations(plan, 0) {
						for i, raw := range g.Raw {
							got, exp = append(got, raw), append(exp, want(g.Gen, i))
						}
					}
				}
				for i := range got {
					if !bytes.Equal(got[i], exp[i]) {
						t.Errorf("%s: returned slice %d changed after later calls", plan, i)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	})
}

// TestStoreReplaceLayoutDropsOnlyAnotherStream: a drain's layout that
// differs from the stored one only in per-generation N (a γ change)
// shadows it and keeps the plan's packets; one of another stream (here
// another content digest) drops them first, across reopen too.
func TestStoreReplaceLayoutDropsOnlyAnotherStream(t *testing.T) {
	forTiers(t, func(t *testing.T, dir string) {
		s := mustOpen(t, dir, Options{})
		lo := pinLayout(1, 300)
		if err := s.ReplaceLayout("p", lo); err != nil {
			t.Fatal(err)
		}
		if err := s.PutPacket("p", lo.Codec, 0, 0, payload(1, 100)); err != nil {
			t.Fatal(err)
		}
		before := s.Stats().Bytes
		if err := s.ReplaceLayout("p", lo); err != nil || s.Stats().Bytes != before {
			t.Fatalf("identical layout: err %v, %d bytes appended", err, s.Stats().Bytes-before)
		}
		wider := pinLayout(1, 300)
		wider.Shapes = append([]core.GenerationShape(nil), wider.Shapes...)
		wider.Shapes[0].N++
		if err := s.ReplaceLayout("p", wider); err != nil {
			t.Fatal(err)
		}
		if got, ok := s.Layout("p"); !ok || got.Shapes[0].N != wider.Shapes[0].N || len(s.Packets("p", lo.Codec)) != 1 {
			t.Fatal("a γ-only layout change lost the layout or the packets")
		}
		if err := s.ReplaceLayout("p", pinLayout(2, 300)); err != nil {
			t.Fatal(err)
		}
		check := func(s *Store) {
			t.Helper()
			if got, ok := s.Layout("p"); !ok || got.Seed != 2 {
				t.Fatalf("layout after another stream: ok %v seed %d", ok, got.Seed)
			}
			if n := len(s.Packets("p", lo.Codec)); n != 0 {
				t.Fatalf("%d packets of the old stream survived", n)
			}
		}
		check(s)
		s.Close()
		if dir != "" {
			s2 := mustOpen(t, dir, Options{})
			defer s2.Close()
			check(s2)
		}
	})
}
