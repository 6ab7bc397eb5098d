// Package obs is the observability layer: an allocation-lean metrics
// registry (atomic counters, gauges, fixed-bucket histograms, scrape-time
// probes) plus a per-fetch event tracer, built entirely on the standard
// library. The protocol of the paper is driven by quantities the system
// already computes — per-round corruption counts feeding the §4.4 EWMA
// α-estimator, γ adaptation, decode and parity work, plan-cache and
// frame-cache hit rates — and obs is the single export path for all of
// them, in the spirit of the event-log instrumentation used to validate
// Bayou's weak-consistency replication and Odyssey's server-side request
// accounting.
//
// The disabled path is near-free by construction: every metric method is
// nil-safe, so instrumented hot loops hold possibly-nil *Counter /
// *Gauge / *Trace pointers and pay one predictable branch per event when
// observability is off (see BenchmarkMetricsDisabled). No locks, no
// allocations, no map lookups ever happen on the hot path — names are
// resolved once, up front, through the Registry.
package obs

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; all methods are nil-safe no-ops so call sites need no
// enabled/disabled branching of their own.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. Calling on a nil counter is a no-op.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one. Calling on a nil counter is a no-op.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count; zero on a nil counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous integer value (e.g. live connections).
// The zero value is ready to use; all methods are nil-safe.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value. Calling on a nil gauge is a no-op.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add moves the gauge by delta (negative to decrease). Nil-safe.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current value; zero on a nil gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// FloatGauge is an atomic instantaneous float value (e.g. the current α
// estimate or requested γ). The zero value is ready to use; nil-safe.
type FloatGauge struct {
	bits atomic.Uint64
}

// Set stores the gauge value. Calling on a nil gauge is a no-op.
func (g *FloatGauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the current value; zero on a nil gauge.
func (g *FloatGauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram with atomic per-bucket counts.
// Bucket i counts observations v <= Bounds[i]; one implicit overflow
// bucket counts the rest. Bounds are set at construction and never
// change, so Observe is lock-free. All methods are nil-safe.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is overflow
	sum    atomic.Uint64  // math.Float64bits-packed running sum
	n      atomic.Int64
}

// newHistogram builds a histogram over the given ascending bucket upper
// bounds. Callers go through Registry.Histogram.
func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one sample. Calling on a nil histogram is a no-op.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.n.Add(1)
	// The sum is advisory (histograms are read far more rarely than
	// written); a CAS loop keeps it exact without a mutex.
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// HistogramSnapshot is a point-in-time copy of a histogram's state.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts has one extra final
	// entry for observations above the last bound.
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Snapshot copies the histogram's current state; zero-valued on nil.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Count:  h.n.Load(),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}
