package main

import (
	"math"
	"sort"
)

// numSlices is how many fixed-op-count slices a workload's script is cut
// into. Each timing metric is computed per slice and the quiet quartile of
// the per-slice values is reported: on a shared host interference only
// ever adds time, so a low quantile over slices that each span a different
// moment of the run repeats far better than the median of all samples
// (which moved 19-25 % between identical runs on the seed host).
const numSlices = 12

// quiet returns the quiet quartile of per-slice values of a
// lower-is-better metric: the value at the first-quartile rank (3rd best
// of 12), so one-sided noise in up to three quarters of the slices leaves
// it on a quiet slice.
func quiet(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := sortedCopy(vals)
	return s[(len(s)+3)/4-1]
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 1) of
// already sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[max(int(math.Ceil(p*float64(len(sorted))))-1, 0)]
}

func median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	s := sortedCopy(vals)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// sliceTurn names one slice of one workload in the run order.
type sliceTurn struct{ workload, slice int }

// interleave orders the slices round-robin across workloads (slice 0 of
// each, then slice 1 of each, ...), so that when several workloads run in
// one process each of them samples the whole run window of a drifting
// host instead of one contiguous stretch of it.
func interleave(workloads, slices int) []sliceTurn {
	order := make([]sliceTurn, 0, workloads*slices)
	for s := 0; s < slices; s++ {
		for w := 0; w < workloads; w++ {
			order = append(order, sliceTurn{w, s})
		}
	}
	return order
}
