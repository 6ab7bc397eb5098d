package main

import (
	"math"
	"reflect"
	"testing"
)

func TestQuietIgnoresOneSidedNoise(t *testing.T) {
	// Twelve quiet slices within half a percent of 100.
	base := []float64{100.2, 99.8, 100.4, 99.9, 100.1, 99.7, 100.3, 100.0, 99.6, 100.5, 99.9, 100.1}
	want := quiet(base)
	tests := []struct {
		name  string
		noisy []int // slice indices hit by interference
		scale float64
	}{
		{"none", nil, 1},
		{"one slice 3x", []int{4}, 3},
		{"four slices +20%", []int{0, 3, 6, 9}, 1.2},
		{"first eight +25%", []int{0, 1, 2, 3, 4, 5, 6, 7}, 1.25},
		{"last eight +60%", []int{4, 5, 6, 7, 8, 9, 10, 11}, 1.6},
		{"eight scattered +8%", []int{0, 2, 3, 5, 6, 8, 9, 11}, 1.08},
	}
	for _, tc := range tests {
		vals := append([]float64(nil), base...)
		for _, i := range tc.noisy {
			vals[i] *= tc.scale
		}
		if got := quiet(vals); math.Abs(got-want)/want > 0.02 {
			t.Errorf("%s: quiet = %.2f, want within 2%% of %.2f", tc.name, got, want)
		}
	}
	// Nine noisy slices leave fewer quiet ones than the rank needs: the
	// estimate must move, or it would be hiding a real slowdown.
	vals := append([]float64(nil), base...)
	for i := 0; i < 10; i++ {
		vals[i] *= 1.3
	}
	if got := quiet(vals); got < 1.2*want {
		t.Errorf("ten slow slices of twelve: quiet = %.2f, want it to follow them", got)
	}
}

func TestQuietRank(t *testing.T) {
	tests := []struct {
		vals []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{4, 3, 2, 1}, 1},
		{[]float64{12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 3}, // 3rd best of 12
	}
	for _, tc := range tests {
		if got := quiet(tc.vals); got != tc.want {
			t.Errorf("quiet(%v) = %v, want %v", tc.vals, got, tc.want)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	sorted := make([]float64, 200)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if got := percentile(sorted, 0.5); got != 100 {
		t.Errorf("p50 = %v, want 100", got)
	}
	if got := percentile(sorted, 0.95); got != 190 { // ten samples beyond it
		t.Errorf("p95 = %v, want 190", got)
	}
	if got := percentile(sorted, 1); got != 200 {
		t.Errorf("p100 = %v, want 200", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

func TestInterleave(t *testing.T) {
	got := interleave(3, 2)
	want := []sliceTurn{{0, 0}, {1, 0}, {2, 0}, {0, 1}, {1, 1}, {2, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("interleave(3, 2) = %v, want %v", got, want)
	}
}
