package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"mobweb/internal/core"
	"mobweb/internal/erasure"
)

// pinLayout is a hand-built layout, so the pin below follows the store's
// format and not the planner's ranking. PutLayout never validates; the
// pin only needs distinct, deterministic bytes per seed.
func pinLayout(seed uint64, body int) core.Layout {
	return core.Layout{
		PacketSize: 100,
		BodySize:   body,
		Codec:      erasure.CodecVandermonde,
		Seed:       seed,
		Shapes:     []core.GenerationShape{{M: 3, N: 5}, {M: 3, N: 5}, {M: 2, N: 4}},
		Ranked: []core.SegmentMeta{
			{Label: "1", Title: "One", Score: 0.5, Length: body / 2},
			{Label: "2", Title: "Two", Score: 0.25, PermutedOff: body / 2, OrigOff: body / 2, Length: body - body/2},
		},
	}
}

// pinSequence drives a store through layouts, packets, generations, a
// changed layout and a drop for several plans and both codecs, in small
// segments under a small budget: rounds rotate mid-round and eviction
// carries layouts. putRound stores one round of one plan's packets.
func pinSequence(t *testing.T, s *Store, putRound func(plan string, codec erasure.CodecID, round []Packet)) {
	t.Helper()
	plans := []string{"pin/a|q|1", "pin/b|q|1", "pin/c|q|2", "pin/d"}
	codecs := []erasure.CodecID{erasure.CodecVandermonde, erasure.CodecVandermonde, erasure.CodecFountain, erasure.CodecVandermonde}
	for i, plan := range plans {
		if err := s.PutLayout(plan, pinLayout(uint64(i+1), 300+10*i)); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < 8; r++ {
		for i, plan := range plans {
			if r == 5 && i == 2 {
				if err := s.Drop(plan); err != nil {
					t.Fatal(err)
				}
				continue
			}
			if r == 3 && i == 1 {
				if err := s.PutLayout(plan, pinLayout(99, 310)); err != nil {
					t.Fatal(err)
				}
			}
			round := make([]Packet, 0, 7)
			for j := 0; j < 5+i%3; j++ {
				round = append(round, Packet{Gen: r / 2, Seq: (r%2)*8 + j, Payload: payload(byte(r*16+i*4+j), 100)})
			}
			if r%3 == 1 {
				round = append(round, round[0]) // a duplicate inside the round is skipped
			}
			putRound(plan, codecs[i], round)
			if r%2 == 1 {
				raw := [][]byte{payload(byte(r), 60), payload(byte(r+1), 60), payload(byte(r+2), 60)}
				if err := s.PutGeneration(plan, codecs[i], r/2+4, raw); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// segmentDigests returns "name sha256" lines for every file in dir, sorted.
func segmentDigests(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		lines = append(lines, e.Name()+" "+hex.EncodeToString(sum[:]))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// storeView renders everything a store answers for its plans, for
// comparing two stores' indexes through the public API.
func storeView(s *Store) string {
	var b strings.Builder
	for _, plan := range s.Plans() {
		lo, ok := s.Layout(plan)
		fmt.Fprintf(&b, "plan %q layout=%v seed=%d body=%d\n", plan, ok, lo.Seed, lo.BodySize)
		for codec := erasure.CodecID(0); codec < 3; codec++ {
			for _, p := range s.Packets(plan, codec) {
				fmt.Fprintf(&b, " packet %d %d/%d %x\n", codec, p.Gen, p.Seq, sha256.Sum256(p.Payload))
			}
			for _, g := range s.Generations(plan, codec) {
				fmt.Fprintf(&b, " gen %d %d %x\n", codec, g.Gen, sha256.Sum256(bytes.Join(g.Raw, nil)))
			}
		}
	}
	st := s.Stats()
	fmt.Fprintf(&b, "records=%d segments=%d bytes=%d\n", st.Records, st.Segments, st.Bytes)
	return b.String()
}

// TestStoreFormatPinned runs one fixed call sequence, with rounds stored
// record by record and as batches, and compares every segment file's
// SHA-256 with testdata/format.golden, written by the record-by-record
// store this format began with. A batch must rotate and evict at exactly
// the record boundaries single appends do, or the files differ. The
// written store must also reopen to the index it had live.
func TestStoreFormatPinned(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "format.golden"))
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{MaxBytes: 6 << 10, SegmentBytes: 1500}
	for _, mode := range []string{"single", "batch"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir, opts)
			evicted := storeMetrics.evictions.Value()
			pinSequence(t, s, func(plan string, codec erasure.CodecID, round []Packet) {
				if mode == "batch" {
					if err := s.PutPackets(plan, codec, round); err != nil {
						t.Fatal(err)
					}
					return
				}
				for _, p := range round {
					if err := s.PutPacket(plan, codec, p.Gen, p.Seq, p.Payload); err != nil {
						t.Fatal(err)
					}
				}
			})
			if storeMetrics.evictions.Value() == evicted {
				t.Fatal("the sequence evicted no segment")
			}
			live := storeView(s)
			s.Close()
			if got := segmentDigests(t, dir); got != string(golden) {
				t.Fatalf("segment files differ from the pinned format:\n got:\n%s want:\n%s", got, golden)
			}
			s2 := mustOpen(t, dir, opts)
			defer s2.Close()
			if reopened := storeView(s2); reopened != live {
				t.Fatalf("reopened index differs from the live one:\n live:\n%s reopened:\n%s", live, reopened)
			}
		})
	}
}
