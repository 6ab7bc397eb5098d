package framecache

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func key(plan string, gen, row int) Key {
	return Key{Plan: plan, Gen: gen, Row: row}
}

// entryOverhead is the planner's per-frame bookkeeping charge.
const entryOverhead = 160

// newFrames builds the frame instance of the cache.
func newFrames(budget int64) *Cache[Key, []byte] { return New[Key, []byte](budget) }

// getOrCook is GetOrLoad the way the planner drives the frame instance: a
// frame is charged its bytes, its plan key and entryOverhead.
func getOrCook(c *Cache[Key, []byte], k Key, f func() ([]byte, error)) ([]byte, error) {
	return c.GetOrLoad(k, func() ([]byte, int64, error) {
		frame, err := f()
		return frame, int64(len(frame)+len(k.Plan)) + entryOverhead, err
	})
}

func TestGetOrCookCachesAndHits(t *testing.T) {
	c := newFrames(0)
	cooked := 0
	cook := func() ([]byte, error) {
		cooked++
		return []byte("frame-0"), nil
	}
	for i := 0; i < 3; i++ {
		frame, err := getOrCook(c, key("p", 0, 0), cook)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(frame, []byte("frame-0")) {
			t.Fatalf("frame = %q", frame)
		}
	}
	if cooked != 1 {
		t.Fatalf("cooked %d times, want 1", cooked)
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 1 || s.Cooks != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.HitRate() < 0.6 || s.HitRate() > 0.7 {
		t.Fatalf("hit rate = %v, want 2/3", s.HitRate())
	}
	if s.Entries != 1 || s.Bytes <= 0 {
		t.Fatalf("occupancy = %d entries %d bytes", s.Entries, s.Bytes)
	}
}

func TestGetMissesThenHit(t *testing.T) {
	c := newFrames(0)
	if _, ok := c.Get(key("p", 0, 1)); ok {
		t.Fatal("unexpected hit on empty cache")
	}
	if _, err := getOrCook(c, key("p", 0, 1), func() ([]byte, error) { return []byte("x"), nil }); err != nil {
		t.Fatal(err)
	}
	frame, ok := c.Get(key("p", 0, 1))
	if !ok || !bytes.Equal(frame, []byte("x")) {
		t.Fatalf("Get = %q, %v", frame, ok)
	}
}

func TestCookErrorNotCached(t *testing.T) {
	c := newFrames(0)
	boom := errors.New("boom")
	if _, err := getOrCook(c, key("p", 0, 0), func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if s := c.Stats(); s.Entries != 0 {
		t.Fatalf("error was cached: %+v", s)
	}
	// A later cook succeeds and is cached.
	if _, err := getOrCook(c, key("p", 0, 0), func() ([]byte, error) { return []byte("ok"), nil }); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key("p", 0, 0)); !ok {
		t.Fatal("recovered cook not cached")
	}
}

func TestByteBudgetEvictsLRU(t *testing.T) {
	frame := make([]byte, 256)
	perEntry := int64(len(frame)) + entryOverhead + 1 // plan key "p"
	c := newFrames(4 * perEntry)
	for row := 0; row < 6; row++ {
		if _, err := getOrCook(c, key("p", 0, row), func() ([]byte, error) { return frame, nil }); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Stats()
	if s.Entries != 4 || s.Evictions != 2 {
		t.Fatalf("stats = %+v, want 4 entries, 2 evictions", s)
	}
	if s.Bytes > 4*perEntry {
		t.Fatalf("bytes %d over budget %d", s.Bytes, 4*perEntry)
	}
	// The oldest rows went first.
	if _, ok := c.Get(key("p", 0, 0)); ok {
		t.Fatal("row 0 should have been evicted")
	}
	if _, ok := c.Get(key("p", 0, 5)); !ok {
		t.Fatal("row 5 should be resident")
	}
}

func TestOversizedFrameServedNotCached(t *testing.T) {
	c := newFrames(64)
	frame, err := getOrCook(c, key("p", 0, 0), func() ([]byte, error) { return make([]byte, 1024), nil })
	if err != nil || len(frame) != 1024 {
		t.Fatalf("frame = %d bytes, err %v", len(frame), err)
	}
	if s := c.Stats(); s.Entries != 0 {
		t.Fatalf("oversized frame was cached: %+v", s)
	}
}

func TestNegativeBudgetDisables(t *testing.T) {
	c := newFrames(-1)
	cooked := 0
	for i := 0; i < 3; i++ {
		getOrCook(c, key("p", 0, 0), func() ([]byte, error) { cooked++; return []byte("x"), nil })
	}
	if cooked != 3 {
		t.Fatalf("cooked %d, want 3 (cache disabled)", cooked)
	}
	if s := c.Stats(); s.Entries != 0 || s.Hits != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestLoadsRunOutsideTheLock: loads of two keys run at once, each
// waiting until both have started. A cache that held its mutex across a
// load would serialise them, and the first would never see the second
// start.
func TestLoadsRunOutsideTheLock(t *testing.T) {
	c := newFrames(0)
	started := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	var wg sync.WaitGroup
	for i := range started {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			frame, err := getOrCook(c, key(fmt.Sprint("p", i), 0, 0), func() ([]byte, error) {
				close(started[i])
				select {
				case <-started[1-i]:
					return []byte("both"), nil
				case <-time.After(10 * time.Second):
					return nil, errors.New("the other load never started")
				}
			})
			if err != nil || string(frame) != "both" {
				t.Errorf("load %d: %q, %v; loads of different keys ran one at a time", i, frame, err)
			}
		}(i)
	}
	wg.Wait()
}

// TestRetiredKeysAgeOut: a key that is never asked for again — a plan of
// a re-indexed document's old version — leaves the cache through the LRU.
// Ten thousand distinct plans cooked once each leave the cache within its
// budget, its index the size of what is resident, and no load in flight.
func TestRetiredKeysAgeOut(t *testing.T) {
	const budget = 4 * (64 + 16 + entryOverhead)
	c := newFrames(budget)
	for i := 0; i < 10000; i++ {
		plan := fmt.Sprintf("%016x", i)
		if _, err := getOrCook(c, key(plan, 0, 0), func() ([]byte, error) { return make([]byte, 64), nil }); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Stats()
	if s.Bytes > budget || s.Entries != 4 || s.Evictions != 10000-4 {
		t.Errorf("stats = %+v, want 4 entries within %d bytes", s, budget)
	}
	if len(c.entries) != s.Entries || c.ll.Len() != s.Entries || len(c.flights) != 0 {
		t.Errorf("index %d, list %d, flights %d for %d resident entries", len(c.entries), c.ll.Len(), len(c.flights), s.Entries)
	}
}

// TestSingleflightDedup drives many concurrent misses of one key and
// requires exactly one cook. Run under -race it also exercises the
// shared-slice publication.
func TestSingleflightDedup(t *testing.T) {
	c := newFrames(0)
	var cooks, entered atomic.Int64
	gate := make(chan struct{})
	var wg sync.WaitGroup
	const workers = 16
	frames := make([][]byte, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-gate
			entered.Add(1)
			frame, err := getOrCook(c, key("p", 2, 7), func() ([]byte, error) {
				cooks.Add(1)
				// Hold the cook open until every worker is about to call
				// GetOrLoad, so most late arrivals coalesce onto this
				// flight. A worker can bump entered and still lose the
				// race to the finished entry; it then scores a hit, which
				// is the same saving counted under another name.
				for entered.Load() < workers {
					time.Sleep(time.Millisecond)
				}
				return []byte("cooked-once"), nil
			})
			if err != nil {
				t.Error(err)
			}
			frames[i] = frame
		}(i)
	}
	close(gate)
	wg.Wait()
	if got := cooks.Load(); got != 1 {
		t.Fatalf("cooked %d times under contention, want 1", got)
	}
	for i, f := range frames {
		if !bytes.Equal(f, []byte("cooked-once")) {
			t.Fatalf("worker %d saw %q", i, f)
		}
	}
	// The counting rule both cache instances share: every lookup is a hit
	// or a miss, and a lookup that joined the flight is a miss and a
	// coalesce — so misses are the one cook plus its joiners.
	s := c.Stats()
	if s.Cooks != 1 || s.Hits+s.Misses != workers || s.Misses != 1+s.Coalesced {
		t.Fatalf("stats = %+v, want 1 cook, %d hits+misses, misses = 1 + coalesced", s, workers)
	}
}

func TestConcurrentMixedOperations(t *testing.T) {
	c := newFrames(8 << 10)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				plan := fmt.Sprintf("plan-%d", i%3)
				k := Key{Plan: plan, Gen: i % 2, Row: i % 17}
				switch i % 5 {
				case 4:
					if frame, ok := c.Get(k); ok && len(frame) != 64 {
						t.Errorf("Get: %d bytes", len(frame))
					}
				default:
					frame, err := getOrCook(c, k, func() ([]byte, error) { return make([]byte, 64), nil })
					if err != nil || len(frame) != 64 {
						t.Errorf("GetOrLoad: %d bytes, %v", len(frame), err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if s := c.Stats(); s.Bytes > 8<<10 {
		t.Fatalf("budget violated: %+v", s)
	}
}

func TestStatsString(t *testing.T) {
	c := newFrames(0)
	getOrCook(c, key("p", 0, 0), func() ([]byte, error) { return []byte("x"), nil })
	got := c.Stats().String()
	if got == "" || !bytes.Contains([]byte(got), []byte("framecache{")) {
		t.Fatalf("String() = %q", got)
	}
}
