// Package framecache is the one cache behind the send path: a generic,
// byte-budgeted LRU with singleflight load deduplication. The planner
// holds two instances — built plans keyed by the versioned plan key, and
// blocks of cooked wire frames keyed by Key — so a retransmission round
// of the paper's Caching strategy costs the server a lookup per block
// instead of a ranking pass and a parity encode per frame. Nothing is
// ever invalidated: a re-indexed document gets a new version, so its old
// entries are never asked for again and age out of the LRU.
//
// Values are SHARED AND IMMUTABLE. An entry of the frame instance is a
// block: consecutive rows of one generation, fully framed (seq + CRC +
// payload, each directly writable to a socket) in one slab. A caller
// that writes into one corrupts the stream of every connection sharing
// the entry (TestFramePurityConcurrent in transport holds every frame a
// fetch was handed to a fresh cook).
// Callers that must mutate a frame — e.g. a fault injector flipping bits
// — copy it into private scratch first.
//
// The package depends only on the standard library: the owner supplies
// keys and costs, so the cache never needs to know what a plan or a
// frame block is, and it never calls back into its owner except through
// the load function, which runs outside the cache lock.
package framecache

import (
	"container/list"
	"fmt"
	"sync"
	"time"
)

// DefaultCacheBytes is the budget New applies when given zero: enough
// frame blocks for a handful of hot documents at the paper's 260-byte
// frames without threatening the plan cache's own budget.
const DefaultCacheBytes = 32 << 20

// Key identifies one cooked block of wire frames. Plan is the planner's
// versioned plan key (document version, document, LOD, notion, γ,
// packet geometry, query-vector hash), and Gen/Row locate the block
// inside the plan's dispersal groups: Row is the block's first row, a
// cooked index within the generation, or the stream seq for rateless
// codecs.
//
// Codec and Seed complete the identity for multi-codec plans: a
// fixed-rate Vandermonde frame and a fountain frame of the same plan
// must never collide, nor may two fountain streams' repair blocks under
// different seeds. Seed is zero for the fixed-rate codec and for a
// fountain source block, which no seed changes.
type Key struct {
	Plan  string
	Gen   int
	Row   int
	Codec uint8
	Seed  uint64
}

// Stats is a point-in-time snapshot of a cache's counters. A load is
// called a cook, after the frame instance the names were coined for,
// whose loads cook a block of frames each.
type Stats struct {
	// Hits counts lookups served from the cache.
	Hits int64
	// Misses counts GetOrLoad lookups that started or joined a load.
	Misses int64
	// Coalesced counts the misses that joined an in-flight load instead
	// of starting their own (singleflight savings).
	Coalesced int64
	// Cooks counts completed load calls, failed ones included.
	Cooks int64
	// CookTime is the cumulative wall time spent inside load functions.
	CookTime time.Duration
	// Evictions counts entries dropped to respect the budget.
	Evictions int64
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
	return fmt.Sprintf("framecache{hits %d, misses %d (%.1f%%), coalesced %d, cooks %d (%v), evictions %d, entries %d, %d bytes}",
		s.Hits, s.Misses, 100*s.HitRate(), s.Coalesced, s.Cooks, s.CookTime.Round(time.Microsecond), s.Evictions, s.Entries, s.Bytes)
}

// entry is one cached value.
type entry[K comparable, V any] struct {
	key  K
	val  V
	cost int64
}

// flight is one in-progress load that concurrent lookups of the same
// key wait on.
type flight[V any] struct {
	wg  sync.WaitGroup
	val V
	err error
}

// Cache is a byte-budgeted LRU of immutable values, safe for concurrent
// use. Loads run outside the cache lock.
type Cache[K comparable, V any] struct {
	budget int64

	mu      sync.Mutex
	stats   Stats               // Entries and Bytes are live occupancy
	ll      *list.List          // front = most recently used
	entries map[K]*list.Element // key → element (value *entry[K, V])
	flights map[K]*flight[V]
}

// New builds a cache bounded to budget estimated bytes. Zero selects
// DefaultCacheBytes; a negative budget retains nothing, so every
// GetOrLoad loads (concurrent loads of one key are still deduplicated).
func New[K comparable, V any](budget int64) *Cache[K, V] {
	if budget == 0 {
		budget = DefaultCacheBytes
	}
	return &Cache[K, V]{
		budget:  budget,
		ll:      list.New(),
		entries: make(map[K]*list.Element),
		flights: make(map[K]*flight[V]),
	}
}

// Get returns the cached value for key, if present. A hit counts; a miss
// does not (the GetOrLoad that follows counts it). The returned value is
// shared and immutable.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if elem, ok := c.entries[key]; ok {
		c.ll.MoveToFront(elem)
		c.stats.Hits++
		return elem.Value.(*entry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// GetOrLoad returns the cached value for key, calling load on a miss and
// caching its result at the cost it reports. Concurrent misses of one
// key share a single load; each joiner counts as a miss and a coalesce.
// The returned value is shared and immutable; load must return one the
// cache may retain (no aliasing of caller-owned buffers). A value costing
// more than the whole budget is served but not cached, and so is an
// error.
func (c *Cache[K, V]) GetOrLoad(key K, load func() (V, int64, error)) (V, error) {
	c.mu.Lock()
	if elem, ok := c.entries[key]; ok {
		c.ll.MoveToFront(elem)
		c.stats.Hits++
		val := elem.Value.(*entry[K, V]).val
		c.mu.Unlock()
		return val, nil
	}
	c.stats.Misses++
	if fl, ok := c.flights[key]; ok {
		c.stats.Coalesced++
		c.mu.Unlock()
		fl.wg.Wait()
		return fl.val, fl.err
	}
	fl := &flight[V]{}
	fl.wg.Add(1)
	c.flights[key] = fl
	c.mu.Unlock()

	start := time.Now() // load-time stats, never part of values or keys
	val, cost, err := load()
	elapsed := time.Since(start)

	c.mu.Lock()
	delete(c.flights, key)
	c.stats.Cooks++
	c.stats.CookTime += elapsed
	if err == nil && cost <= c.budget {
		c.insertLocked(&entry[K, V]{key: key, val: val, cost: cost})
	}
	c.mu.Unlock()

	fl.val, fl.err = val, err
	fl.wg.Done()
	return val, err
}

// Stats returns a snapshot of the cache's counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// insertLocked caches a loaded value and evicts from the LRU tail until
// the budget holds. Callers hold c.mu and have checked the entry alone
// fits; no entry of the key is resident, because its flight was.
func (c *Cache[K, V]) insertLocked(ent *entry[K, V]) {
	c.entries[ent.key] = c.ll.PushFront(ent)
	c.stats.Entries++
	c.stats.Bytes += ent.cost
	for c.stats.Bytes > c.budget {
		old := c.ll.Remove(c.ll.Back()).(*entry[K, V])
		delete(c.entries, old.key)
		c.stats.Entries--
		c.stats.Bytes -= old.cost
		c.stats.Evictions++
	}
}
