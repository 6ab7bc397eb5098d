package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestStoreKillDuringAppendTornWrite simulates a crash at every byte of
// an in-flight append: the segment is cut to each possible length, and
// recovery must (a) never panic, (b) keep every record fully written
// before the cut, and (c) never surface the torn record. This is the
// kill-during-append contract: a crash costs at most the record being
// appended.
func TestStoreKillDuringAppendTornWrite(t *testing.T) {
	// Build a reference segment with three records.
	base := t.TempDir()
	s, err := Open(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	payloads := [][]byte{payload(1, 40), payload(2, 40), payload(3, 40)}
	var bounds []int64 // segment size after each record
	for i, p := range payloads {
		if err := s.PutPacket("p", 0, 0, i, p); err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, s.Stats().Bytes)
	}
	s.Close()
	seg, err := os.ReadFile(filepath.Join(base, "seg-00000000.log"))
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut <= len(seg); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "seg-00000000.log"), seg[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		// Records wholly before the cut survive; nothing torn surfaces.
		wantComplete := 0
		for _, b := range bounds {
			if int64(cut) >= b {
				wantComplete++
			}
		}
		pkts := s2.Packets("p", 0)
		if len(pkts) != wantComplete {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(pkts), wantComplete)
		}
		for i, p := range pkts {
			if !bytes.Equal(p.Payload, payloads[i]) {
				t.Fatalf("cut %d: record %d corrupted after recovery", cut, i)
			}
		}
		st := s2.Stats()
		if int64(cut) > 0 && wantComplete < len(bounds) && int64(cut) != boundsAt(bounds, wantComplete) && st.TornTails != 1 {
			t.Fatalf("cut %d: torn tails = %d, want 1", cut, st.TornTails)
		}
		// The store must accept appends after recovery, and they must
		// survive another reopen — the truncated tail cannot poison the
		// next write.
		if err := s2.PutPacket("p", 0, 1, 0, payload(9, 40)); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		s2.Close()
		s3, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		pkts = s3.Packets("p", 0)
		if len(pkts) != wantComplete+1 {
			t.Fatalf("cut %d: post-recovery append lost: %d records", cut, len(pkts))
		}
		if lastp := pkts[len(pkts)-1]; lastp.Gen != 1 || !bytes.Equal(lastp.Payload, payload(9, 40)) {
			t.Fatalf("cut %d: post-recovery append corrupted", cut)
		}
		s3.Close()
	}
}

// TestStoreKillDuringBatchTornWrite is the same contract for a batch:
// one PutPackets writes a round of records in one write, and a crash can
// tear it anywhere. Cut at every byte of the batch, recovery keeps the
// record written before it and every batch record wholly before the
// cut, and surfaces nothing torn: a crash costs at most the batch's
// records from the tear on.
func TestStoreKillDuringBatchTornWrite(t *testing.T) {
	base := t.TempDir()
	s := mustOpen(t, base, Options{})
	first := payload(7, 40)
	if err := s.PutPacket("p", 0, 0, 0, first); err != nil {
		t.Fatal(err)
	}
	before := s.Stats().Bytes
	var round []Packet
	for i := 1; i <= 5; i++ {
		round = append(round, Packet{Gen: 0, Seq: i, Payload: payload(byte(10*i), 30+4*i)})
	}
	if err := s.PutPackets("p", 0, round); err != nil {
		t.Fatal(err)
	}
	s.Close()
	seg, err := os.ReadFile(filepath.Join(base, "seg-00000000.log"))
	if err != nil {
		t.Fatal(err)
	}
	bounds := []int64{before} // segment size after each record
	for _, p := range round {
		bounds = append(bounds, bounds[len(bounds)-1]+int64(recHeaderLen+len("p")+len(p.Payload)+recTrailerLen))
	}
	if bounds[len(bounds)-1] != int64(len(seg)) {
		t.Fatalf("segment is %d bytes, records add up to %d", len(seg), bounds[len(bounds)-1])
	}
	want := append([]Packet{{Gen: 0, Seq: 0, Payload: first}}, round...)

	for cut := before; cut <= int64(len(seg)); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "seg-00000000.log"), seg[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		complete, clean := 0, false
		for _, b := range bounds {
			if cut >= b {
				complete++
			}
			clean = clean || cut == b
		}
		pkts := s2.Packets("p", 0)
		if len(pkts) != complete {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(pkts), complete)
		}
		for i, p := range pkts {
			if p.Seq != want[i].Seq || !bytes.Equal(p.Payload, want[i].Payload) {
				t.Fatalf("cut %d: record %d corrupted after recovery", cut, i)
			}
		}
		if tails := s2.Stats().TornTails; (tails == 0) != clean {
			t.Fatalf("cut %d: torn tails = %d, clean cut %v", cut, tails, clean)
		}
		// The lost records can be stored again, and survive a reopen.
		if err := s2.PutPackets("p", 0, round); err != nil {
			t.Fatalf("cut %d: batch after recovery: %v", cut, err)
		}
		s2.Close()
		s3 := mustOpen(t, dir, Options{})
		if pkts := s3.Packets("p", 0); len(pkts) != len(want) {
			t.Fatalf("cut %d: %d records after re-storing the batch, want %d", cut, len(pkts), len(want))
		}
		s3.Close()
	}
}

// boundsAt returns the exact byte bound after n complete records (0 for
// none), so the torn-tail assertion can exempt clean cuts.
func boundsAt(bounds []int64, n int) int64 {
	if n == 0 {
		return 0
	}
	return bounds[n-1]
}

// TestStoreRecoverDoesNotTrustLengths plants absurd length prefixes and
// asserts the scan refuses them without allocating or panicking.
func TestStoreRecoverDoesNotTrustLengths(t *testing.T) {
	dir := t.TempDir()
	// kind=2, codec=0, gen=0, seq=0, keyLen=0xffff, payloadLen=0xffffffff
	rec := make([]byte, recHeaderLen)
	rec[0] = recPacket
	rec[10], rec[11] = 0xff, 0xff
	rec[12], rec[13], rec[14], rec[15] = 0xff, 0xff, 0xff, 0xff
	if err := os.WriteFile(filepath.Join(dir, "seg-00000000.log"), rec, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st := s.Stats()
	if st.Records != 0 || st.TornTails != 1 {
		t.Fatalf("stats = %+v, want 0 records and 1 torn tail", st)
	}
}
