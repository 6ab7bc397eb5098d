// Package store is the client's one packet state: every cooked packet,
// decoded generation and layout a client holds toward a document lives
// here, whether a foreground fetch or an idle-time prefetch received it.
// It has two tiers behind one format. A store opened on a directory is
// persistent and crash-safe: a mobile browser that dies mid-fetch —
// battery, OOM kill, crash — comes back holding every CRC-verified packet
// and decoded generation it had, so its next request resumes with a Have
// list instead of refetching bytes the radio already paid for. A store
// opened on "" is the RAM tier: the same records, index, dedup, byte
// budget and eviction, with segments held in memory and nothing to
// recover.
//
// The format is an append-only log of self-checking records split over
// fixed-size segments (on disk seg-00000000.log, seg-00000001.log, ...).
// Each record carries its own CRC-32 over header, key and payload;
// recovery scans every segment file in order, rebuilds the in-memory
// index, and truncates a segment at the first record that is short or
// fails its CRC — a torn tail from a crash mid-append loses at most the
// record being written, never anything before it. There is no fsync:
// "crash-safe" here means recovery never panics and never surfaces a
// record whose CRC fails, not that the last write survives power loss.
//
// Records are keyed by (plan key, codec, generation, sequence). The
// plan key is the client's canonical fetch shape (document, query, LOD,
// notion, γ, codec); the sequence is generation-local so cooked
// packets stored under one γ remain addressable after an adaptive-γ
// layout change, mirroring Receiver.Rebase's row-identity rules.
//
// Space is bounded by a byte budget: when the log exceeds it, whole
// oldest segments are deleted (their index entries vanish with them).
// Eviction is coarse on purpose — dropping a cold plan's packets costs
// one refetch; per-record compaction would cost write amplification the
// client's flash does not want. A plan's layout is written once, so when
// its segment goes while newer segments still hold the plan's packets,
// the layout record is carried forward into the active segment: packets
// without their layout could never seed a receiver.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"

	"mobweb/internal/core"
	"mobweb/internal/erasure"
)

// Record kinds. The kind byte leads every record; an unknown kind stops
// the recovery scan at that offset (it cannot be framed trustworthily).
const (
	recLayout     = 1 // payload: core.Layout.MarshalBinary for the plan key (version byte first)
	recPacket     = 2 // payload: one cooked packet (gen-local seq)
	recGeneration = 3 // payload: uint16 M followed by M raw packets
	recDrop       = 4 // tombstone: forget every record of the plan key
)

// Format limits, enforced on both write and recovery so a corrupt
// length prefix cannot drive a huge allocation.
const (
	maxKeyLen     = 4096
	maxPayloadLen = 1 << 24
	// recHeaderLen is kind(1) + codec(1) + gen(4) + seq(4) + keyLen(2) +
	// payloadLen(4); the CRC-32 trailer adds 4 more after the payload.
	recHeaderLen  = 16
	recTrailerLen = 4
)

// Options tunes a store.
type Options struct {
	// MaxBytes is the byte budget across all segments; exceeding it
	// evicts whole oldest segments. Zero means 64 MiB; negative disables
	// eviction.
	MaxBytes int64
	// SegmentBytes is the rotation threshold for the active segment.
	// Zero means 1 MiB. Smaller segments evict at finer grain.
	SegmentBytes int64
}

func (o Options) withDefaults() Options {
	if o.MaxBytes == 0 {
		o.MaxBytes = 64 << 20
	}
	if o.SegmentBytes == 0 {
		o.SegmentBytes = 1 << 20
	}
	return o
}

// key identifies one record in the index. Layouts use gen = seq = 0 and
// codec 0; packets and generations carry their own coordinates.
type key struct {
	kind  byte
	codec erasure.CodecID
	gen   int
	seq   int
	plan  string
}

// ref locates a live record inside a segment.
type ref struct {
	seg  *seg
	off  int64
	size int // whole record: header + key + payload + CRC
}

// segment is one segment's bytes: an *os.File for a store on disk, a
// memSeg for a memory-only one. Records are written at the segment's
// tracked end and read back where the index says they are.
type segment interface {
	io.ReaderAt
	io.WriterAt
	io.Closer
}

// seg is one live segment and the bytes written to it so far.
type seg struct {
	id   int
	f    segment
	size int64
}

// memSeg is a segment held in RAM. It only ever grows at its end.
type memSeg struct{ b []byte }

func (m *memSeg) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 || off > int64(len(m.b)) {
		return 0, io.EOF
	}
	n := copy(p, m.b[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (m *memSeg) WriteAt(p []byte, off int64) (int, error) {
	if off != int64(len(m.b)) {
		return 0, fmt.Errorf("store: write at %d, segment ends at %d", off, len(m.b))
	}
	m.b = append(m.b, p...)
	return len(p), nil
}

func (m *memSeg) Close() error {
	m.b = nil
	return nil
}

// Packet is one stored cooked packet. Seq is generation-local: the
// cooked row index within Gen, stable across γ-only layout changes.
type Packet struct {
	Gen, Seq int
	Payload  []byte
}

// Generation is one stored decoded generation: the M raw packets.
type Generation struct {
	Gen int
	Raw [][]byte
}

// Stats is a point-in-time snapshot of store state and lifetime
// counters (the latter also feed the package metrics probe).
type Stats struct {
	// Segments and Bytes describe the current footprint, on disk or in
	// RAM; Records counts live index entries.
	Segments int
	Bytes    int64
	Records  int
	// RecoveredRecords and TornTails summarize the last Open: records
	// readmitted by the scan, and segments truncated at a bad record.
	RecoveredRecords int
	TornTails        int
}

// Store is an open packet store. It is safe for concurrent use: the
// foreground fetch path and the idle-time prefetch scheduler share one
// store.
type Store struct {
	mu     sync.Mutex
	dir    string // "" for a memory-only store
	opts   Options
	index  map[key]ref
	segs   []*seg // live segments, ascending id; the last is the append target
	bytes  int64  // total bytes across live segments
	stats  Stats
	closed bool
}

// Open opens the store rooted at dir, creating the directory if needed,
// and runs the recovery scan: every segment is read in id order, intact
// records are indexed, and a segment is truncated at the first short or
// CRC-failing record. Open never fails on corrupt record data — only on
// I/O errors from the directory itself. An empty dir opens a fresh
// memory-only store: nothing to recover, and nothing outlives Close.
func Open(dir string, opts Options) (*Store, error) {
	s := &Store{
		dir:   dir,
		opts:  opts.withDefaults(),
		index: make(map[key]ref),
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: open %s: %w", dir, err)
		}
		if err := s.recover(); err != nil {
			s.Close()
			return nil, err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.segs) == 0 {
		if err := s.rotate(); err != nil {
			return nil, err
		}
	}
	s.evictLocked()
	return s, nil
}

// Close releases every segment. The store must not be used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	var first error
	for _, sg := range s.segs {
		if err := sg.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.closed = true
	return first
}

// Dir returns the store's root directory; "" for a memory-only store.
func (s *Store) Dir() string { return s.dir }

// segPath names segment id's file.
func (s *Store) segPath(id int) string {
	return filepath.Join(s.dir, fmt.Sprintf("seg-%08d.log", id))
}

// recover scans every segment file in id order, indexing intact records
// and truncating each segment at its first bad one.
func (s *Store) recover() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: scan %s: %w", s.dir, err)
	}
	var ids []int
	for _, e := range entries {
		var id int
		if n, _ := fmt.Sscanf(e.Name(), "seg-%d.log", &id); n == 1 && !e.IsDir() {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	for _, id := range ids {
		if err := s.recoverSegment(id); err != nil {
			return err
		}
	}
	return nil
}

// recoverSegment reads one segment sequentially, indexes every intact
// record, and truncates the file at the first record that is short,
// oversized, of unknown kind, or CRC-failing. Everything before that
// point is trusted; nothing after it can be framed.
func (s *Store) recoverSegment(id int) error {
	f, err := os.OpenFile(s.segPath(id), os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: open segment: %w", err)
	}
	sg := &seg{id: id, f: f}
	s.segs = append(s.segs, sg)
	data, err := os.ReadFile(s.segPath(id))
	if err != nil {
		return fmt.Errorf("store: read segment: %w", err)
	}
	off := 0
	for {
		rec, k, n := parseRecord(data[off:])
		if n <= 0 {
			break
		}
		if rec.kind == recDrop {
			// A tombstone erases every earlier record of the plan key;
			// the tombstone itself holds no data worth indexing.
			for ik := range s.index {
				if ik.plan == k.plan {
					delete(s.index, ik)
				}
			}
		} else {
			s.index[k] = ref{seg: sg, off: int64(off), size: n}
		}
		s.stats.RecoveredRecords++
		storeMetrics.recovered.Inc()
		off += n
	}
	if off < len(data) {
		// Torn tail: a crash mid-append (or corruption) left bytes that
		// do not frame to an intact record. Truncate so the next append
		// starts at a clean boundary.
		if err := f.Truncate(int64(off)); err != nil {
			return fmt.Errorf("store: truncate torn tail: %w", err)
		}
		s.stats.TornTails++
		storeMetrics.tornTails.Inc()
	}
	sg.size = int64(off)
	s.bytes += sg.size
	return nil
}

// parseRecord frames and verifies one record at the head of data. It
// returns the record's coordinates and total length, or n <= 0 when the
// bytes do not form an intact record (short, oversized, unknown kind,
// or CRC mismatch).
func parseRecord(data []byte) (r struct {
	kind  byte
	codec erasure.CodecID
	gen   int
	seq   int
}, k key, n int) {
	if len(data) < recHeaderLen {
		return r, k, 0
	}
	kind := data[0]
	if kind < recLayout || kind > recDrop {
		return r, k, 0
	}
	codec := erasure.CodecID(data[1])
	gen := int(binary.BigEndian.Uint32(data[2:6]))
	seq := int(binary.BigEndian.Uint32(data[6:10]))
	keyLen := int(binary.BigEndian.Uint16(data[10:12]))
	payloadLen := int(binary.BigEndian.Uint32(data[12:16]))
	if keyLen > maxKeyLen || payloadLen > maxPayloadLen {
		return r, k, 0
	}
	total := recHeaderLen + keyLen + payloadLen + recTrailerLen
	if len(data) < total {
		return r, k, 0
	}
	body := data[:total-recTrailerLen]
	want := binary.BigEndian.Uint32(data[total-recTrailerLen : total])
	if crc32.ChecksumIEEE(body) != want {
		return r, k, 0
	}
	r.kind = kind
	r.codec = codec
	r.gen = gen
	r.seq = seq
	k = key{kind: kind, codec: codec, gen: gen, seq: seq,
		plan: string(data[recHeaderLen : recHeaderLen+keyLen])}
	return r, k, total
}

// appendLocked encodes and appends one record to the active segment,
// rotating first when the segment is full. Callers hold the lock.
func (s *Store) appendLocked(k key, payload []byte) error {
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	if len(k.plan) > maxKeyLen {
		return fmt.Errorf("store: plan key %d bytes exceeds %d", len(k.plan), maxKeyLen)
	}
	if len(payload) > maxPayloadLen {
		return fmt.Errorf("store: payload %d bytes exceeds %d", len(payload), maxPayloadLen)
	}
	if s.segs[len(s.segs)-1].size >= s.opts.SegmentBytes {
		if err := s.rotate(); err != nil {
			return err
		}
		s.evictLocked()
	}
	total := recHeaderLen + len(k.plan) + len(payload) + recTrailerLen
	buf := make([]byte, total)
	buf[0] = k.kind
	buf[1] = byte(k.codec)
	binary.BigEndian.PutUint32(buf[2:6], uint32(k.gen))
	binary.BigEndian.PutUint32(buf[6:10], uint32(k.seq))
	binary.BigEndian.PutUint16(buf[10:12], uint16(len(k.plan)))
	binary.BigEndian.PutUint32(buf[12:16], uint32(len(payload)))
	copy(buf[recHeaderLen:], k.plan)
	copy(buf[recHeaderLen+len(k.plan):], payload)
	binary.BigEndian.PutUint32(buf[total-recTrailerLen:], crc32.ChecksumIEEE(buf[:total-recTrailerLen]))
	return s.writeLocked(k, buf)
}

// writeLocked writes one encoded record at the active segment's end and
// indexes it. It never rotates, so eviction may call it.
func (s *Store) writeLocked(k key, rec []byte) error {
	act := s.segs[len(s.segs)-1]
	if _, err := act.f.WriteAt(rec, act.size); err != nil {
		storeMetrics.writeErrors.Inc()
		return fmt.Errorf("store: append: %w", err)
	}
	if k.kind != recDrop {
		s.index[k] = ref{seg: act, off: act.size, size: len(rec)}
	}
	act.size += int64(len(rec))
	s.bytes += int64(len(rec))
	storeMetrics.appends.Inc()
	storeMetrics.bytesAppended.Add(int64(len(rec)))
	return nil
}

// rotate opens the next segment id as the append target.
func (s *Store) rotate() error {
	next := 0
	if len(s.segs) > 0 {
		next = s.segs[len(s.segs)-1].id + 1
	}
	var f segment = &memSeg{}
	if s.dir != "" {
		file, err := os.OpenFile(s.segPath(next), os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			return fmt.Errorf("store: create segment: %w", err)
		}
		f = file
	}
	s.segs = append(s.segs, &seg{id: next, f: f})
	return nil
}

// evictLocked deletes whole oldest segments while the store exceeds its
// byte budget, never touching the active segment. Index entries living
// in a deleted segment vanish with it — except a layout whose plan still
// has records elsewhere: it is re-written into the active segment first,
// or those records could never seed a receiver again.
func (s *Store) evictLocked() {
	if s.opts.MaxBytes < 0 {
		return
	}
	for s.bytes > s.opts.MaxBytes && len(s.segs) > 1 {
		victim := s.segs[0]
		s.segs = s.segs[1:]
		// The victim's layout records by plan.
		layouts := make(map[string][]byte)
		for k, r := range s.index {
			if r.seg != victim {
				continue
			}
			if k.kind == recLayout {
				if rec, ok := s.recordLocked(k, r); ok {
					layouts[k.plan] = rec
				}
			}
			delete(s.index, k)
		}
		victim.f.Close()
		if s.dir != "" {
			os.Remove(s.segPath(victim.id))
		}
		s.bytes -= victim.size
		storeMetrics.evictions.Inc()
		if len(layouts) == 0 {
			continue
		}

		var carry []string
		for k := range s.index {
			if _, ok := layouts[k.plan]; ok && !slices.Contains(carry, k.plan) {
				carry = append(carry, k.plan)
			}
		}
		sort.Strings(carry)
		for _, plan := range carry {
			s.writeLocked(key{kind: recLayout, plan: plan}, layouts[plan])
		}
	}
}

// recordLocked reads and re-verifies one indexed record, returning the
// whole record. The CRC is checked again on every read: the index only
// proves the record was intact at scan or append time, not that the
// medium kept it so.
func (s *Store) recordLocked(k key, r ref) ([]byte, bool) {
	buf := make([]byte, r.size)
	if _, err := r.seg.f.ReadAt(buf, r.off); err != nil {
		storeMetrics.readErrors.Inc()
		return nil, false
	}
	rec, pk, n := parseRecord(buf)
	if n != r.size || pk != k || rec.kind != k.kind {
		storeMetrics.readErrors.Inc()
		return nil, false
	}
	return buf, true
}

// readLocked returns one indexed record's payload. A record failing
// re-verification is dropped from the index.
func (s *Store) readLocked(k key) ([]byte, bool) {
	r, ok := s.index[k]
	if !ok {
		return nil, false
	}
	buf, ok := s.recordLocked(k, r)
	if !ok {
		delete(s.index, k)
		return nil, false
	}
	return buf[recHeaderLen+len(k.plan) : r.size-recTrailerLen], true
}

// PutLayout records the transmission layout for a plan key. A layout
// byte-identical to the stored one is skipped; a changed layout is
// appended and shadows the old one (latest wins on recovery too, since
// segments replay in order).
func (s *Store) PutLayout(plan string, lo core.Layout) error {
	data, err := lo.MarshalBinary()
	if err != nil {
		return fmt.Errorf("store: marshal layout: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	k := key{kind: recLayout, plan: plan}
	if old, ok := s.readLocked(k); ok && string(old) == string(data) {
		return nil
	}
	return s.appendLocked(k, data)
}

// Layout returns the stored layout for a plan key. A stored layout that
// fails to decode or validate is dropped and reported absent — which is
// also what happens to the JSON payload an older build wrote: its first
// byte is '{', not a known encoding version, and the fetch starts over.
func (s *Store) Layout(plan string) (core.Layout, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := key{kind: recLayout, plan: plan}
	data, ok := s.readLocked(k)
	if !ok {
		return core.Layout{}, false
	}
	var lo core.Layout
	if err := lo.UnmarshalBinary(data); err != nil || lo.Validate() != nil {
		delete(s.index, k)
		return core.Layout{}, false
	}
	return lo, true
}

// PutPacket records one CRC-verified cooked packet under its
// generation-local sequence. A packet already stored under the same key
// is skipped — cooked rows are immutable, so the first write wins.
func (s *Store) PutPacket(plan string, codec erasure.CodecID, gen, seq int, payload []byte) error {
	if gen < 0 || seq < 0 {
		return fmt.Errorf("store: negative packet coordinates (%d, %d)", gen, seq)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	k := key{kind: recPacket, codec: codec, gen: gen, seq: seq, plan: plan}
	if _, ok := s.index[k]; ok {
		return nil
	}
	return s.appendLocked(k, payload)
}

// HasPacket reports whether a packet is indexed (without reading it).
func (s *Store) HasPacket(plan string, codec erasure.CodecID, gen, seq int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[key{kind: recPacket, codec: codec, gen: gen, seq: seq, plan: plan}]
	return ok
}

// Packets returns every stored packet for a plan, ordered by
// (generation, sequence). Records failing re-verification are skipped.
func (s *Store) Packets(plan string, codec erasure.CodecID) []Packet {
	s.mu.Lock()
	defer s.mu.Unlock()
	var keys []key
	for k := range s.index {
		if k.kind == recPacket && k.codec == codec && k.plan == plan {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].gen != keys[j].gen {
			return keys[i].gen < keys[j].gen
		}
		return keys[i].seq < keys[j].seq
	})
	out := make([]Packet, 0, len(keys))
	for _, k := range keys {
		if payload, ok := s.readLocked(k); ok {
			out = append(out, Packet{Gen: k.gen, Seq: k.seq, Payload: payload})
		}
	}
	return out
}

// PutGeneration records generation gen's decoded raw packets. All M
// packets must share one size. An already-stored generation is skipped.
func (s *Store) PutGeneration(plan string, codec erasure.CodecID, gen int, raw [][]byte) error {
	if gen < 0 {
		return fmt.Errorf("store: negative generation %d", gen)
	}
	if len(raw) == 0 || len(raw) > 1<<16-1 {
		return fmt.Errorf("store: generation of %d raw packets", len(raw))
	}
	size := len(raw[0])
	for _, p := range raw {
		if len(p) != size {
			return fmt.Errorf("store: ragged raw packets (%d vs %d bytes)", len(p), size)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	k := key{kind: recGeneration, codec: codec, gen: gen, plan: plan}
	if _, ok := s.index[k]; ok {
		return nil
	}
	payload := make([]byte, 2, 2+len(raw)*size)
	binary.BigEndian.PutUint16(payload, uint16(len(raw)))
	for _, p := range raw {
		payload = append(payload, p...)
	}
	return s.appendLocked(k, payload)
}

// HasGeneration reports whether a decoded generation is indexed.
func (s *Store) HasGeneration(plan string, codec erasure.CodecID, gen int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[key{kind: recGeneration, codec: codec, gen: gen, plan: plan}]
	return ok
}

// Generations returns every stored decoded generation for a plan in
// ascending generation order. Malformed or failing records are skipped.
func (s *Store) Generations(plan string, codec erasure.CodecID) []Generation {
	s.mu.Lock()
	defer s.mu.Unlock()
	var keys []key
	for k := range s.index {
		if k.kind == recGeneration && k.codec == codec && k.plan == plan {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].gen < keys[j].gen })
	out := make([]Generation, 0, len(keys))
	for _, k := range keys {
		payload, ok := s.readLocked(k)
		if !ok || len(payload) < 2 {
			continue
		}
		m := int(binary.BigEndian.Uint16(payload))
		body := payload[2:]
		if m == 0 || len(body)%m != 0 {
			continue
		}
		size := len(body) / m
		raw := make([][]byte, m)
		for i := range raw {
			raw[i] = body[i*size : (i+1)*size]
		}
		out = append(out, Generation{Gen: k.gen, Raw: raw})
	}
	return out
}

// Drop forgets every record of a plan key: a tombstone is appended (so
// recovery forgets them too) and the live index entries are removed.
// Use it when the server's layout for the plan changed incompatibly —
// the stored packets would poison a reconstruction.
func (s *Store) Drop(plan string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k := range s.index {
		if k.plan == plan {
			delete(s.index, k)
		}
	}
	storeMetrics.drops.Inc()
	return s.appendLocked(key{kind: recDrop, plan: plan}, nil)
}

// Plans returns every plan key with at least one live record, sorted.
func (s *Store) Plans() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := make(map[string]bool)
	for k := range s.index {
		seen[k.plan] = true
	}
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Stats snapshots the store's footprint and recovery counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Segments = len(s.segs)
	st.Bytes = s.bytes
	st.Records = len(s.index)
	return st
}
