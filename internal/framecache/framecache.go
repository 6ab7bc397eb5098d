// Package framecache is the shared cooked-frame store behind the send
// path: a byte-budgeted LRU of encoded wire frames keyed by (canonical
// plan key, γ, generation, row), with singleflight cook deduplication.
//
// Before this layer existed, every connection streaming a hot document
// re-marshalled every frame — and, past each generation's clear-text
// prefix, re-triggered parity encoding — per fetch. The planner cache
// (plan builds) had already deduplicated the other redundant computation
// on the hot path; frames were the last one. With this cache, N concurrent fetches
// of one document share exactly one parity encode + marshal per row,
// which is what lets a single server behave like a CDN edge for cooked
// frames.
//
// The cache stores fully framed wire bytes (seq + CRC + payload), so a
// hit is directly writable to a socket with no per-connection marshal.
// Returned slices are SHARED AND IMMUTABLE: a caller that writes into
// one corrupts the stream of every connection sharing the entry (the
// framemut analyzer machine-checks call sites). Callers that must
// mutate a frame — e.g. a fault injector flipping bits — copy it into
// private scratch first.
//
// The package depends only on the standard library; the planner owns
// the instance and supplies canonical keys, so framecache never needs
// to know what a plan is.
package framecache

import (
	"container/list"
	"fmt"
	"sync"
	"time"
)

// DefaultCacheBytes is the frame-budget applied when Options.Bytes is
// zero: enough for a handful of hot documents at the paper's 260-byte
// frames without threatening the plan cache's own budget.
const DefaultCacheBytes = 32 << 20

// entryOverhead approximates the per-entry bookkeeping cost charged
// against the byte budget on top of the frame bytes themselves: the key
// strings, the map cells and the list element.
const entryOverhead = 160

// Key identifies one cooked wire frame. Plan is the planner's canonical
// plan key (document, LOD, notion, γ, packet geometry, query-vector
// hash, plus a document-version token), Gamma repeats the redundancy
// ratio explicitly so operators can reason about the γ dimension, and
// Gen/Row locate the frame inside the plan's dispersal groups (Row is
// the global cooked sequence number's index within its generation, or
// the stream seq for rateless codecs).
//
// Codec and Seed complete the identity for multi-codec plans: a
// fixed-rate Vandermonde frame and a fountain frame of the same plan
// must never collide, nor may two fountain streams under different
// seeds. Both are zero for the legacy fixed-rate codec, so pre-codec
// keys are unchanged.
type Key struct {
	Plan  string
	Gamma float64
	Gen   int
	Row   int
	Codec uint8
	Seed  uint64
}

// Options tunes a Cache.
type Options struct {
	// Bytes bounds the estimated total bytes of cached frames plus
	// bookkeeping. Zero selects DefaultCacheBytes; a negative value
	// disables caching entirely (GetOrCook always cooks, though
	// concurrent cooks of one key are still deduplicated).
	Bytes int64
}

// Stats is a point-in-time snapshot of the cache's counters.
type Stats struct {
	// Hits counts lookups served from the cache.
	Hits int64
	// Misses counts lookups that required (or joined) a cook.
	Misses int64
	// Coalesced counts lookups that joined an in-flight cook instead of
	// starting their own (singleflight savings).
	Coalesced int64
	// Cooks counts completed cook calls (encode + marshal work done).
	Cooks int64
	// CookTime is the cumulative wall time spent inside cook functions.
	CookTime time.Duration
	// Evictions counts entries dropped to respect the budget.
	Evictions int64
	// Invalidations counts entries dropped by InvalidatePlan.
	Invalidations int64
	// Entries and Bytes describe current occupancy.
	Entries int
	Bytes   int64
}

// HitRate returns Hits/(Hits+Misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// String formats the snapshot for logs.
func (s Stats) String() string {
	return fmt.Sprintf("framecache{hits %d, misses %d (%.1f%%), coalesced %d, cooks %d (%v), evictions %d, invalidations %d, entries %d, %d bytes}",
		s.Hits, s.Misses, 100*s.HitRate(), s.Coalesced, s.Cooks, s.CookTime.Round(time.Microsecond), s.Evictions, s.Invalidations, s.Entries, s.Bytes)
}

// entry is one cached frame.
type entry struct {
	key   Key
	frame []byte
	cost  int64
}

// flight is one in-progress cook that concurrent lookups of the same
// key wait on.
type flight struct {
	wg    sync.WaitGroup
	frame []byte
	err   error
	// stale is set (under the cache lock) when the plan was invalidated
	// while the cook ran: the frame is served to its waiters but not
	// inserted.
	stale bool
}

// Cache is a byte-budgeted LRU of immutable encoded frames, safe for
// concurrent use. Cooks run outside the cache lock.
type Cache struct {
	opts Options

	mu      sync.Mutex
	ll      *list.List            // front = most recently used
	entries map[Key]*list.Element // key → element (value *entry)
	byPlan  map[string]map[Key]*list.Element
	flights map[Key]*flight
	bytes   int64

	hits, misses, coalesced int64
	cooks, evict, invalid   int64
	cookNanos               int64
}

// New builds a frame cache.
func New(opts Options) *Cache {
	if opts.Bytes == 0 {
		opts.Bytes = DefaultCacheBytes
	}
	return &Cache{
		opts:    opts,
		ll:      list.New(),
		entries: make(map[Key]*list.Element),
		byPlan:  make(map[string]map[Key]*list.Element),
		flights: make(map[Key]*flight),
	}
}

// Get returns the cached frame for key, if present. The returned slice
// is shared and immutable.
func (c *Cache) Get(key Key) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if elem, ok := c.entries[key]; ok {
		c.ll.MoveToFront(elem)
		c.hits++
		return elem.Value.(*entry).frame, true
	}
	return nil, false
}

// GetOrCook returns the cached frame for key, cooking it with cook on a
// miss. Concurrent misses of one key share a single cook. The returned
// slice is shared and immutable; cook must return a frame the cache may
// retain (no aliasing of caller-owned buffers).
func (c *Cache) GetOrCook(key Key, cook func() ([]byte, error)) ([]byte, error) {
	c.mu.Lock()
	if elem, ok := c.entries[key]; ok {
		c.ll.MoveToFront(elem)
		c.hits++
		frame := elem.Value.(*entry).frame
		c.mu.Unlock()
		return frame, nil
	}
	if fl, ok := c.flights[key]; ok {
		c.coalesced++
		c.misses++
		c.mu.Unlock()
		fl.wg.Wait()
		return fl.frame, fl.err
	}
	fl := &flight{}
	fl.wg.Add(1)
	c.flights[key] = fl
	c.misses++
	c.mu.Unlock()

	start := time.Now() //mobweb:nondet-ok cook-time stats, never part of frame bytes or keys
	frame, err := cook()
	elapsed := time.Since(start) //mobweb:nondet-ok cook-time stats

	c.mu.Lock()
	delete(c.flights, key)
	c.cooks++
	c.cookNanos += elapsed.Nanoseconds()
	// Insert only when the plan was not invalidated while we cooked: a
	// re-indexed document must not resurrect through a racing cook.
	if err == nil && !fl.stale {
		c.insertLocked(key, frame)
	}
	c.mu.Unlock()

	fl.frame, fl.err = frame, err
	fl.wg.Done()
	return frame, err
}

// InvalidatePlan drops every cached frame of one plan key and poisons
// in-flight cooks for it, returning the number of entries dropped. The
// planner calls it when a plan is evicted or its document re-indexed.
func (c *Cache) InvalidatePlan(plan string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	//mobweb:nondet-ok every in-flight cook of the plan is marked; order is immaterial
	for key, fl := range c.flights {
		if key.Plan == plan {
			fl.stale = true
		}
	}
	keys := c.byPlan[plan]
	n := len(keys)
	for _, elem := range keys {
		c.removeLocked(elem)
		c.invalid++
	}
	return n
}

// Stats returns a snapshot of the cache's counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:          c.hits,
		Misses:        c.misses,
		Coalesced:     c.coalesced,
		Cooks:         c.cooks,
		CookTime:      time.Duration(c.cookNanos),
		Evictions:     c.evict,
		Invalidations: c.invalid,
		Entries:       c.ll.Len(),
		Bytes:         c.bytes,
	}
}

// insertLocked caches a cooked frame and evicts from the LRU tail until
// the budget holds. Frames beyond the whole budget are served but never
// cached. Callers hold c.mu.
func (c *Cache) insertLocked(key Key, frame []byte) {
	if c.opts.Bytes < 0 {
		return
	}
	cost := int64(len(frame)) + entryOverhead + int64(len(key.Plan))
	if cost > c.opts.Bytes {
		return
	}
	if elem, ok := c.entries[key]; ok {
		// A racing cook of the same key got here first; replace it.
		c.removeLocked(elem)
	}
	ent := &entry{key: key, frame: frame, cost: cost}
	elem := c.ll.PushFront(ent)
	c.entries[key] = elem
	if c.byPlan[key.Plan] == nil {
		c.byPlan[key.Plan] = make(map[Key]*list.Element)
	}
	c.byPlan[key.Plan][key] = elem
	c.bytes += cost
	for c.bytes > c.opts.Bytes {
		oldest := c.ll.Back()
		if oldest == nil || oldest == c.ll.Front() {
			break
		}
		c.removeLocked(oldest)
		c.evict++
	}
}

// removeLocked drops one cache element. Callers hold c.mu.
func (c *Cache) removeLocked(elem *list.Element) {
	ent := elem.Value.(*entry)
	c.ll.Remove(elem)
	delete(c.entries, ent.key)
	if keys := c.byPlan[ent.key.Plan]; keys != nil {
		delete(keys, ent.key)
		if len(keys) == 0 {
			delete(c.byPlan, ent.key.Plan)
		}
	}
	c.bytes -= ent.cost
}
