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
// fails its CRC. A call writes its records with one write per segment it
// fills (PutPackets stores a whole round in one), so a torn tail from a
// crash mid-append loses at most the records of the batch being written,
// from the tear on, never anything before it. There is no fsync:
// "crash-safe" here means recovery never panics and never surfaces a
// record whose CRC fails, not that the last write survives power loss.
//
// Records are keyed by (plan key, codec, generation, sequence). The
// plan key is the client's canonical fetch shape (document, query, LOD,
// notion, γ, codec); the sequence is generation-local so cooked
// packets stored under one γ remain addressable after an adaptive-γ
// layout change, mirroring Receiver.Rebase's row-identity rules. The
// index is grouped by plan key, so a call about one plan touches only
// that plan's records, and a read fetches each run of records that lie
// back to back in a segment with one read into a block of its own.
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
	"bytes"
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

// maxSpare bounds the emptied plan indexes kept for reuse.
const maxSpare = 8

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

// recKey identifies one record among its plan's. Layouts and drops use
// codec 0 and gen = seq = 0; packets and generations carry their own
// coordinates.
type recKey struct {
	kind  byte
	codec erasure.CodecID
	gen   int
	seq   int
}

var layoutKey = recKey{kind: recLayout}

// ref locates a live record inside a segment.
type ref struct {
	seg  *seg
	off  int64
	size int // whole record: header + key + payload + CRC
}

// planIndex is one plan key's live records. A plan without any is not in
// the index.
type planIndex struct {
	plan string
	recs map[recKey]ref
	// oldest is a segment id no live record of the plan is older than:
	// eviction visits the plan only when the victim may hold some.
	oldest int
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

// Store is an open packet store. It is safe for concurrent use: a
// client's fetches and prefetches, on any number of connections, share
// one store.
type Store struct {
	mu     sync.Mutex
	dir    string // "" for a memory-only store
	opts   Options
	plans  map[string]*planIndex
	segs   []*seg // live segments, ascending id; the last is the append target
	bytes  int64  // total bytes across live segments
	stats  Stats
	closed bool

	// Buffers reused under mu. Nothing a method returns aliases them:
	// Packets and Generations hand out blocks of their own.
	wbuf    []byte       // encoded records not yet written to the active segment
	pending []pendingRec // one per record in wbuf
	rbuf    []byte       // records read back: a stored layout, eviction's carried layouts
	lbuf    []byte       // the layout a put encodes
	sel     hits         // the records one Packets or Generations call reads
	carry   []carried    // the layouts one eviction carries forward
	spare   []*planIndex // emptied plan indexes, reused by new plans
}

// pendingRec is one record encoded into wbuf and indexed ahead of its
// write; a failed write restores prev (or deletes the entry when there
// was none). p is nil for a tombstone, which is not indexed.
type pendingRec struct {
	p    *planIndex
	k    recKey
	prev ref
}

// carried is one layout record, read into rbuf, that an eviction
// re-writes into the active segment.
type carried struct {
	plan      string
	off, size int
}

// hit is one record a read selects; at is its offset in the read's
// block, and ok reports that it re-verified there.
type hit struct {
	k  recKey
	r  ref
	at int
	ok bool
}

// hits is the records one read selects, in the order order lists them:
// by where they lie (segment, offset), to read back-to-back runs at once,
// or by coordinates (generation, sequence), the order reads return.
// Sorting permutes order and leaves h in place.
type hits struct {
	h       []hit
	order   []int32
	byCoord bool
}

func (x *hits) Len() int      { return len(x.order) }
func (x *hits) Swap(i, j int) { x.order[i], x.order[j] = x.order[j], x.order[i] }
func (x *hits) Less(i, j int) bool {
	a, b := &x.h[x.order[i]], &x.h[x.order[j]]
	if x.byCoord {
		return a.k.gen < b.k.gen || a.k.gen == b.k.gen && a.k.seq < b.k.seq
	}
	return a.r.seg.id < b.r.seg.id || a.r.seg.id == b.r.seg.id && a.r.off < b.r.off
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
		plans: make(map[string]*planIndex),
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
		h, n := frame(data[off:])
		if n <= 0 {
			break
		}
		planKey := data[off+recHeaderLen : off+recHeaderLen+h.keyLen]
		p := s.plans[string(planKey)]
		if h.kind == recDrop {
			// A tombstone erases every earlier record of the plan key;
			// the tombstone itself holds no data worth indexing.
			if p != nil {
				s.forgetLocked(p)
			}
		} else {
			if p == nil {
				p = s.addPlanLocked(string(planKey), sg)
			}
			p.recs[h.key()] = ref{seg: sg, off: int64(off), size: n}
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

// header is a record's fixed-size head, decoded.
type header struct {
	kind   byte
	codec  erasure.CodecID
	gen    int
	seq    int
	keyLen int
}

func (h header) key() recKey {
	return recKey{kind: h.kind, codec: h.codec, gen: h.gen, seq: h.seq}
}

// frame frames and verifies one record at the head of data. It returns
// the record's header and total length, or n <= 0 when the bytes do not
// form an intact record (short, oversized, unknown kind, or CRC
// mismatch).
func frame(data []byte) (h header, n int) {
	if len(data) < recHeaderLen {
		return h, 0
	}
	kind := data[0]
	if kind < recLayout || kind > recDrop {
		return h, 0
	}
	keyLen := int(binary.BigEndian.Uint16(data[10:12]))
	payloadLen := int(binary.BigEndian.Uint32(data[12:16]))
	if keyLen > maxKeyLen || payloadLen > maxPayloadLen {
		return h, 0
	}
	total := recHeaderLen + keyLen + payloadLen + recTrailerLen
	if len(data) < total {
		return h, 0
	}
	want := binary.BigEndian.Uint32(data[total-recTrailerLen : total])
	if crc32.ChecksumIEEE(data[:total-recTrailerLen]) != want {
		return h, 0
	}
	return header{
		kind:   kind,
		codec:  erasure.CodecID(data[1]),
		gen:    int(binary.BigEndian.Uint32(data[2:6])),
		seq:    int(binary.BigEndian.Uint32(data[6:10])),
		keyLen: keyLen,
	}, total
}

// verify reports whether rec is, byte for byte, an intact record k of
// plan. The CRC is checked again on every read: the index only proves
// the record was intact at scan or append time, not that the medium
// kept it so.
func verify(rec []byte, plan string, k recKey) bool {
	h, n := frame(rec)
	return n == len(rec) && h.key() == k && string(rec[recHeaderLen:recHeaderLen+h.keyLen]) == plan
}

// payloadOf returns the payload of a verified record of plan.
func payloadOf(rec []byte, plan string) []byte {
	end := len(rec) - recTrailerLen
	return rec[recHeaderLen+len(plan) : end : end]
}

// addPlanLocked indexes a new plan key whose first record lies in sg.
func (s *Store) addPlanLocked(plan string, sg *seg) *planIndex {
	var p *planIndex
	if n := len(s.spare); n > 0 {
		p, s.spare = s.spare[n-1], s.spare[:n-1]
	} else {
		p = &planIndex{recs: make(map[recKey]ref)}
	}
	p.plan, p.oldest = plan, sg.id
	s.plans[plan] = p
	return p
}

// forgetLocked removes a plan key and all its records from the index.
func (s *Store) forgetLocked(p *planIndex) {
	if s.plans[p.plan] != p {
		return // already forgotten
	}
	delete(s.plans, p.plan)
	clear(p.recs)
	p.plan = ""
	if len(s.spare) < maxSpare {
		s.spare = append(s.spare, p)
	}
}

// deleteLocked removes one record from the index, and the plan with its
// last record.
func (s *Store) deleteLocked(p *planIndex, k recKey) {
	delete(p.recs, k)
	if len(p.recs) == 0 {
		s.forgetLocked(p)
	}
}

// checkLocked refuses a record the format cannot hold, or any record
// once the store is closed.
func (s *Store) checkLocked(plan string, payloadLen int) error {
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	if len(plan) > maxKeyLen {
		return fmt.Errorf("store: plan key %d bytes exceeds %d", len(plan), maxKeyLen)
	}
	if payloadLen > maxPayloadLen {
		return fmt.Errorf("store: payload %d bytes exceeds %d", payloadLen, maxPayloadLen)
	}
	return nil
}

// beginLocked starts one record in wbuf — header and key; the caller
// appends the payload and calls endLocked. When the active segment, with
// the bytes already pending for it, is full, the pending bytes are
// written and the segment rotated first: the record boundary a
// record-at-a-time append rotates at, so a batch lays records out
// exactly as single appends do.
func (s *Store) beginLocked(plan string, k recKey) (start int, err error) {
	if s.segs[len(s.segs)-1].size+int64(len(s.wbuf)) >= s.opts.SegmentBytes {
		if err := s.flushLocked(); err != nil {
			return 0, err
		}
		if err := s.rotate(); err != nil {
			return 0, err
		}
		s.evictLocked()
	}
	start = len(s.wbuf)
	s.wbuf = append(s.wbuf, k.kind, byte(k.codec))
	s.wbuf = binary.BigEndian.AppendUint32(s.wbuf, uint32(k.gen))
	s.wbuf = binary.BigEndian.AppendUint32(s.wbuf, uint32(k.seq))
	s.wbuf = binary.BigEndian.AppendUint16(s.wbuf, uint16(len(plan)))
	s.wbuf = append(s.wbuf, 0, 0, 0, 0) // payload length, set by endLocked
	s.wbuf = append(s.wbuf, plan...)
	return start, nil
}

// endLocked seals the record begun at start with its payload length and
// CRC, and indexes it.
func (s *Store) endLocked(plan string, k recKey, start int) {
	rec := s.wbuf[start:]
	binary.BigEndian.PutUint32(rec[12:16], uint32(len(rec)-recHeaderLen-len(plan)))
	s.wbuf = binary.BigEndian.AppendUint32(s.wbuf, crc32.ChecksumIEEE(rec))
	s.indexLocked(plan, k, start)
}

// indexLocked indexes the record at wbuf[start:] at the active-segment
// offset it will be written to. A tombstone is only counted.
func (s *Store) indexLocked(plan string, k recKey, start int) {
	if k.kind == recDrop {
		s.pending = append(s.pending, pendingRec{})
		return
	}
	act := s.segs[len(s.segs)-1]
	p := s.plans[plan]
	if p == nil {
		p = s.addPlanLocked(plan, act)
	}
	prev := p.recs[k]
	p.recs[k] = ref{seg: act, off: act.size + int64(start), size: len(s.wbuf) - start}
	s.pending = append(s.pending, pendingRec{p: p, k: k, prev: prev})
}

// flushLocked writes wbuf at the active segment's end in one write. If
// the write fails, the records it held leave the index again.
func (s *Store) flushLocked() error {
	if len(s.wbuf) == 0 {
		return nil
	}
	act := s.segs[len(s.segs)-1]
	_, err := act.f.WriteAt(s.wbuf, act.size)
	if err != nil {
		storeMetrics.writeErrors.Inc()
		for i := len(s.pending) - 1; i >= 0; i-- {
			pr := s.pending[i]
			switch {
			case pr.p == nil:
			case pr.prev.seg != nil:
				pr.p.recs[pr.k] = pr.prev
			default:
				s.deleteLocked(pr.p, pr.k)
			}
		}
	} else {
		act.size += int64(len(s.wbuf))
		s.bytes += int64(len(s.wbuf))
		storeMetrics.appends.Add(int64(len(s.pending)))
		storeMetrics.bytesAppended.Add(int64(len(s.wbuf)))
	}
	s.wbuf, s.pending = s.wbuf[:0], s.pending[:0]
	if err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	return nil
}

// appendLocked appends one record and writes it.
func (s *Store) appendLocked(plan string, k recKey, payload []byte) error {
	if err := s.checkLocked(plan, len(payload)); err != nil {
		return err
	}
	start, err := s.beginLocked(plan, k)
	if err != nil {
		return err
	}
	s.wbuf = append(s.wbuf, payload...)
	s.endLocked(plan, k, start)
	return s.flushLocked()
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
// has records elsewhere: it is re-written into the active segment, in
// plan-key order, or those records could never seed a receiver again.
// It never rotates, and runs with nothing pending.
func (s *Store) evictLocked() {
	if s.opts.MaxBytes < 0 {
		return
	}
	for s.bytes > s.opts.MaxBytes && len(s.segs) > 1 {
		victim := s.segs[0]
		s.segs = s.segs[1:]
		s.carry, s.rbuf = s.carry[:0], s.rbuf[:0]
		for _, p := range s.plans {
			if p.oldest <= victim.id {
				s.evictPlanLocked(p, victim)
			}
		}
		victim.f.Close()
		if s.dir != "" {
			os.Remove(s.segPath(victim.id))
		}
		s.bytes -= victim.size
		storeMetrics.evictions.Inc()

		for _, c := range s.carry {
			start := len(s.wbuf)
			s.wbuf = append(s.wbuf, s.rbuf[c.off:c.off+c.size]...)
			s.indexLocked(c.plan, layoutKey, start)
		}
		// A failed write un-indexes the carried layouts: their plans'
		// packets then seed nothing until a fetch stores the layout again.
		_ = s.flushLocked()
	}
}

// evictPlanLocked drops plan p's records in victim. When one is the
// plan's layout and the plan keeps records elsewhere, the layout record
// is read into rbuf and queued in carry.
func (s *Store) evictPlanLocked(p *planIndex, victim *seg) {
	var layout ref
	oldest := -1
	for k, r := range p.recs {
		if r.seg != victim {
			if oldest < 0 || r.seg.id < oldest {
				oldest = r.seg.id
			}
			continue
		}
		if k.kind == recLayout {
			layout = r
		}
		delete(p.recs, k)
	}
	if len(p.recs) == 0 {
		s.forgetLocked(p)
		return
	}
	p.oldest = oldest
	if layout.seg == nil {
		return
	}
	off := len(s.rbuf)
	s.rbuf = slices.Grow(s.rbuf, layout.size)[:off+layout.size]
	rec := s.rbuf[off:]
	if _, err := victim.f.ReadAt(rec, layout.off); err != nil || !verify(rec, p.plan, layoutKey) {
		storeMetrics.readErrors.Inc()
		s.rbuf = s.rbuf[:off]
		return
	}
	// Kept in plan-key order: the carried records then land the same
	// on every run, whatever order the index is walked in.
	i := len(s.carry)
	for i > 0 && s.carry[i-1].plan > p.plan {
		i--
	}
	s.carry = slices.Insert(s.carry, i, carried{plan: p.plan, off: off, size: layout.size})
}

// recordLocked reads one indexed record into rbuf and re-verifies it,
// returning its payload, a view of rbuf valid until the next read. A
// record failing re-verification leaves the index.
func (s *Store) recordLocked(plan string, k recKey) ([]byte, bool) {
	p := s.plans[plan]
	if p == nil {
		return nil, false
	}
	r, ok := p.recs[k]
	if !ok {
		return nil, false
	}
	s.rbuf = slices.Grow(s.rbuf[:0], r.size)[:r.size]
	if _, err := r.seg.f.ReadAt(s.rbuf, r.off); err != nil || !verify(s.rbuf, plan, k) {
		storeMetrics.readErrors.Inc()
		s.deleteLocked(p, k)
		return nil, false
	}
	return payloadOf(s.rbuf, plan), true
}

// readLocked reads every record of one kind and codec of a plan into a
// new block, with one read per run of records that lie back to back in a
// segment, and re-verifies each in place. It leaves sel holding them in
// (generation, sequence) order, each with its offset in the block and
// whether it verified, and returns the block and the count that did. A
// record failing re-verification leaves the index.
func (s *Store) readLocked(plan string, kind byte, codec erasure.CodecID) (block []byte, n int) {
	s.sel.h, s.sel.order = s.sel.h[:0], s.sel.order[:0]
	p := s.plans[plan]
	if p == nil {
		return nil, 0
	}
	size := 0
	for k, r := range p.recs {
		if k.kind == kind && k.codec == codec {
			s.sel.order = append(s.sel.order, int32(len(s.sel.h)))
			s.sel.h = append(s.sel.h, hit{k: k, r: r})
			size += r.size
		}
	}
	if len(s.sel.h) == 0 {
		return nil, 0
	}
	s.sel.byCoord = false
	sort.Sort(&s.sel)
	block = make([]byte, size)
	hs, order, at := s.sel.h, s.sel.order, 0
	for i := 0; i < len(order); {
		first := hs[order[i]].r
		end := first.off + int64(first.size)
		j := i + 1
		for ; j < len(order); j++ {
			r := hs[order[j]].r
			if r.seg != first.seg || r.off != end {
				break
			}
			end += int64(r.size)
		}
		// A short read fails only the records past its end.
		got, _ := first.seg.f.ReadAt(block[at:at+int(end-first.off)], first.off)
		got += at
		for ; i < j; i++ {
			h := &hs[order[i]]
			h.at = at
			at += h.r.size
			h.ok = at <= got && verify(block[h.at:at], plan, h.k)
			if h.ok {
				n++
			} else {
				storeMetrics.readErrors.Inc()
				s.deleteLocked(p, h.k)
			}
		}
	}
	s.sel.byCoord = true
	sort.Sort(&s.sel)
	return block, n
}

// PutLayout records the transmission layout for a plan key. A layout
// byte-identical to the stored one is skipped; a changed layout is
// appended and shadows the old one (latest wins on recovery too, since
// segments replay in order).
func (s *Store) PutLayout(plan string, lo core.Layout) error {
	return s.putLayout(plan, lo, false)
}

// ReplaceLayout is PutLayout for a client draining a receiver: when the
// stored layout is not the same stream as lo (core.Layout.SameStream),
// the plan is dropped first, since its packets would poison a
// reconstruction under lo. The stored layout is read once and decoded
// only when its bytes differ from lo's.
func (s *Store) ReplaceLayout(plan string, lo core.Layout) error {
	return s.putLayout(plan, lo, true)
}

func (s *Store) putLayout(plan string, lo core.Layout, dropStale bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lbuf, _ = lo.AppendBinary(s.lbuf[:0])
	if old, ok := s.recordLocked(plan, layoutKey); ok {
		if bytes.Equal(old, s.lbuf) {
			return nil
		}
		var stored core.Layout
		if dropStale && stored.UnmarshalBinary(old) == nil && stored.Validate() == nil && stored.SameStream(lo) != nil {
			if err := s.dropLocked(plan); err != nil {
				return err
			}
		}
	}
	return s.appendLocked(plan, layoutKey, s.lbuf)
}

// Layout returns the stored layout for a plan key. A stored layout that
// fails to decode or validate is dropped and reported absent — which is
// also what happens to the JSON payload an older build wrote: its first
// byte is '{', not a known encoding version, and the fetch starts over.
func (s *Store) Layout(plan string) (core.Layout, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.recordLocked(plan, layoutKey)
	if !ok {
		return core.Layout{}, false
	}
	var lo core.Layout
	if err := lo.UnmarshalBinary(data); err != nil || lo.Validate() != nil {
		s.deleteLocked(s.plans[plan], layoutKey)
		return core.Layout{}, false
	}
	return lo, true
}

// PutPacket records one CRC-verified cooked packet under its
// generation-local sequence. A packet already stored under the same key
// is skipped — cooked rows are immutable, so the first write wins.
func (s *Store) PutPacket(plan string, codec erasure.CodecID, gen, seq int, payload []byte) error {
	return s.PutPackets(plan, codec, []Packet{{Gen: gen, Seq: seq, Payload: payload}})
}

// PutPackets records a round of CRC-verified cooked packets, each as
// PutPacket would, with one write for the round (one per segment it
// fills). Packets already stored, or earlier in pkts, are skipped. A
// packet with negative coordinates or an oversized payload fails the
// whole call before anything is written.
func (s *Store) PutPackets(plan string, codec erasure.CodecID, pkts []Packet) error {
	for _, p := range pkts {
		if p.Gen < 0 || p.Seq < 0 {
			return fmt.Errorf("store: negative packet coordinates (%d, %d)", p.Gen, p.Seq)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range pkts {
		if err := s.checkLocked(plan, len(p.Payload)); err != nil {
			return err
		}
	}
	for _, p := range pkts {
		k := recKey{kind: recPacket, codec: codec, gen: p.Gen, seq: p.Seq}
		if s.hasLocked(plan, k) {
			continue
		}
		start, err := s.beginLocked(plan, k)
		if err != nil {
			return err
		}
		s.wbuf = append(s.wbuf, p.Payload...)
		s.endLocked(plan, k, start)
	}
	return s.flushLocked()
}

// hasLocked reports whether a record is indexed.
func (s *Store) hasLocked(plan string, k recKey) bool {
	p := s.plans[plan]
	if p == nil {
		return false
	}
	_, ok := p.recs[k]
	return ok
}

// HasPacket reports whether a packet is indexed (without reading it).
func (s *Store) HasPacket(plan string, codec erasure.CodecID, gen, seq int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hasLocked(plan, recKey{kind: recPacket, codec: codec, gen: gen, seq: seq})
}

// Packets returns every stored packet for a plan, ordered by
// (generation, sequence). Records failing re-verification are skipped.
// The payloads share one block the caller owns.
func (s *Store) Packets(plan string, codec erasure.CodecID) []Packet {
	s.mu.Lock()
	defer s.mu.Unlock()
	block, n := s.readLocked(plan, recPacket, codec)
	out := make([]Packet, 0, n)
	for _, i := range s.sel.order {
		if h := &s.sel.h[i]; h.ok {
			out = append(out, Packet{Gen: h.k.gen, Seq: h.k.seq, Payload: payloadOf(block[h.at:h.at+h.r.size], plan)})
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
	k := recKey{kind: recGeneration, codec: codec, gen: gen}
	if s.hasLocked(plan, k) {
		return nil
	}
	if err := s.checkLocked(plan, 2+len(raw)*size); err != nil {
		return err
	}
	start, err := s.beginLocked(plan, k)
	if err != nil {
		return err
	}
	s.wbuf = binary.BigEndian.AppendUint16(s.wbuf, uint16(len(raw)))
	for _, p := range raw {
		s.wbuf = append(s.wbuf, p...)
	}
	s.endLocked(plan, k, start)
	return s.flushLocked()
}

// HasGeneration reports whether a decoded generation is indexed.
func (s *Store) HasGeneration(plan string, codec erasure.CodecID, gen int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hasLocked(plan, recKey{kind: recGeneration, codec: codec, gen: gen})
}

// Generations returns every stored decoded generation for a plan in
// ascending generation order. Malformed or failing records are skipped.
// The raw packets share one block the caller owns.
func (s *Store) Generations(plan string, codec erasure.CodecID) []Generation {
	s.mu.Lock()
	defer s.mu.Unlock()
	block, n := s.readLocked(plan, recGeneration, codec)
	// Size the raw-packet slices of every well-formed record at once.
	raws := 0
	for _, i := range s.sel.order {
		h := &s.sel.h[i]
		if !h.ok {
			continue
		}
		payload := payloadOf(block[h.at:h.at+h.r.size], plan)
		if m := genCount(payload); m > 0 {
			raws += m
		} else {
			h.ok = false
			n--
		}
	}
	out := make([]Generation, 0, n)
	backing := make([][]byte, raws)
	for _, i := range s.sel.order {
		h := &s.sel.h[i]
		if !h.ok {
			continue
		}
		payload := payloadOf(block[h.at:h.at+h.r.size], plan)
		m := genCount(payload)
		body, size := payload[2:], (len(payload)-2)/m
		raw := backing[:m:m]
		backing = backing[m:]
		for i := range raw {
			raw[i] = body[i*size : (i+1)*size : (i+1)*size]
		}
		out = append(out, Generation{Gen: h.k.gen, Raw: raw})
	}
	return out
}

// genCount returns a generation record's raw-packet count M, or 0 when
// the payload does not split into M equal packets.
func genCount(payload []byte) int {
	if len(payload) < 2 {
		return 0
	}
	m := int(binary.BigEndian.Uint16(payload))
	if m == 0 || (len(payload)-2)%m != 0 {
		return 0
	}
	return m
}

// Drop forgets every record of a plan key: a tombstone is appended (so
// recovery forgets them too) and the live index entries are removed.
// Use it when the server's layout for the plan changed incompatibly —
// the stored packets would poison a reconstruction.
func (s *Store) Drop(plan string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropLocked(plan)
}

func (s *Store) dropLocked(plan string) error {
	if p := s.plans[plan]; p != nil {
		s.forgetLocked(p)
	}
	storeMetrics.drops.Inc()
	return s.appendLocked(plan, recKey{kind: recDrop}, nil)
}

// Plans returns every plan key with at least one live record, sorted.
func (s *Store) Plans() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.plans))
	for plan := range s.plans {
		out = append(out, plan)
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
	for _, p := range s.plans {
		st.Records += len(p.recs)
	}
	return st
}
