package store

import (
	"testing"

	"mobweb/internal/erasure"
)

// testRound is one round of n cooked packets of a plan, the shape a
// receiver's drain stores: 256-byte payloads, sequences spread over two
// generations.
func testRound(n int) []Packet {
	round := make([]Packet, n)
	for i := range round {
		round[i] = Packet{Gen: i % 2, Seq: i / 2, Payload: payload(byte(i), 256)}
	}
	return round
}

// TestPutPacketsSteadyStateAllocFree: with the store's buffers warm, a
// round of packets is encoded into a buffer the store reuses, indexed
// into a reused plan index and written in one call, allocating nothing.
// The disk tier only: a RAM segment is the records' memory, and grows.
func TestPutPacketsSteadyStateAllocFree(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{MaxBytes: -1, SegmentBytes: 1 << 30})
	defer s.Close()
	round := testRound(80)
	allocs := testing.AllocsPerRun(20, func() {
		if err := s.PutPackets("plan", erasure.CodecVandermonde, round); err != nil {
			t.Fatal(err)
		}
		if err := s.Drop("plan"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a steady-state round allocates %.0f times, want 0", allocs)
	}
}

// TestReadsAllocateConstantPerCall: Packets and Generations read a plan's
// records into one block per call, whatever their number or how they
// interleave with another plan's on disk: the count of allocations per
// call does not grow with the records.
func TestReadsAllocateConstantPerCall(t *testing.T) {
	forTiers(t, func(t *testing.T, dir string) {
		measure := func(n int) (pkts, gens float64) {
			if dir != "" {
				dir = t.TempDir() // each measurement on a fresh store
			}
			s := mustOpen(t, dir, Options{})
			defer s.Close()
			for i, p := range testRound(n) {
				// Every few records another plan's land in between, so
				// the reads cover several runs.
				if err := s.PutPacket("p", 0, p.Gen, p.Seq, p.Payload); err != nil {
					t.Fatal(err)
				}
				if i%5 == 4 {
					if err := s.PutPacket("other", 0, p.Gen, p.Seq, p.Payload); err != nil {
						t.Fatal(err)
					}
				}
				if i%4 == 0 {
					raw := [][]byte{payload(byte(i), 64), payload(byte(i+1), 64), payload(byte(i+2), 64)}
					if err := s.PutGeneration("p", 0, i, raw); err != nil {
						t.Fatal(err)
					}
				}
			}
			pkts = testing.AllocsPerRun(20, func() {
				if got := len(s.Packets("p", 0)); got != n {
					t.Fatalf("%d packets, want %d", got, n)
				}
			})
			gens = testing.AllocsPerRun(20, func() {
				if got := len(s.Generations("p", 0)); got != (n+3)/4 {
					t.Fatalf("%d generations, want %d", got, (n+3)/4)
				}
			})
			return pkts, gens
		}
		p8, g8 := measure(8)
		p80, g80 := measure(80)
		if p8 != p80 || g8 != g80 {
			t.Fatalf("allocations grow with records: Packets %.0f → %.0f, Generations %.0f → %.0f", p8, p80, g8, g80)
		}
		// The block and the result; for generations also the raw slices.
		if p80 > 2 || g80 > 3 {
			t.Fatalf("Packets allocates %.0f times, Generations %.0f; want at most 2 and 3", p80, g80)
		}
	})
}

// benchTiers runs fn against a store on disk and a RAM one.
func benchTiers(b *testing.B, fn func(b *testing.B, s *Store)) {
	for _, tier := range []string{"disk", "ram"} {
		b.Run(tier, func(b *testing.B) {
			dir := ""
			if tier == "disk" {
				dir = b.TempDir()
			}
			s, err := Open(dir, Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			fn(b, s)
		})
	}
}

// persistRound stores a receiver drain's layout and round the way the
// client's store glue does.
func persistRound(s *Store, plan string, round []Packet) error {
	if err := s.ReplaceLayout(plan, pinLayout(1, 300)); err != nil {
		return err
	}
	return s.PutPackets(plan, erasure.CodecVandermonde, round)
}

// BenchmarkStorePersistRound is one fresh plan's first drain: its
// layout and a round of 80 packets, as a skim's first round stores them.
// Each plan is dropped again so the log stays one plan deep.
func BenchmarkStorePersistRound(b *testing.B) {
	round := testRound(80)
	plans := []string{"plan-0", "plan-1", "plan-2", "plan-3"}
	benchTiers(b, func(b *testing.B, s *Store) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			plan := plans[i%len(plans)]
			if err := persistRound(s, plan, round); err != nil {
				b.Fatal(err)
			}
			if err := s.Drop(plan); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStoreSeed is what seeding a receiver reads back: the layout,
// two decoded generations and 80 loose packets of one plan.
func BenchmarkStoreSeed(b *testing.B) {
	benchTiers(b, func(b *testing.B, s *Store) {
		if err := persistRound(s, "plan", testRound(80)); err != nil {
			b.Fatal(err)
		}
		for g := 2; g < 4; g++ {
			raw := [][]byte{payload(1, 256), payload(2, 256), payload(3, 256)}
			if err := s.PutGeneration("plan", erasure.CodecVandermonde, g, raw); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := s.Layout("plan"); !ok {
				b.Fatal("layout missing")
			}
			if len(s.Generations("plan", erasure.CodecVandermonde)) != 2 || len(s.Packets("plan", erasure.CodecVandermonde)) != 80 {
				b.Fatal("records missing")
			}
		}
	})
}
