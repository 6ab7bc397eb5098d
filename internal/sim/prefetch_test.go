package sim

import (
	"testing"
	"time"
)

func prefetchFastParams() Params {
	p := DefaultParams()
	p.Documents = 15
	p.Repetitions = 2
	p.Irrelevant = 0
	p.Caching = true
	return p
}

func TestPrefetchValidation(t *testing.T) {
	p := prefetchFastParams()
	if _, err := RunPrefetch(p, PrefetchParams{Candidates: 0}); err == nil {
		t.Error("zero candidates accepted")
	}
	if _, err := RunPrefetch(p, PrefetchParams{Candidates: 3, ThinkTime: -time.Second}); err == nil {
		t.Error("negative think time accepted")
	}
	bad := p
	bad.Gamma = 0.5
	if _, err := RunPrefetch(bad, DefaultPrefetchParams()); err == nil {
		t.Error("invalid base params accepted")
	}
}

func TestPrefetchReducesResponseTime(t *testing.T) {
	p := prefetchFastParams()
	p.Alpha = 0.1
	pp := DefaultPrefetchParams()

	pp.Enabled = false
	off, err := RunPrefetch(p, pp)
	if err != nil {
		t.Fatal(err)
	}
	pp.Enabled = true
	on, err := RunPrefetch(p, pp)
	if err != nil {
		t.Fatal(err)
	}
	if on.MeanResponseTime >= off.MeanResponseTime {
		t.Errorf("prefetch on %.2fs not below off %.2fs", on.MeanResponseTime, off.MeanResponseTime)
	}
	// Ten seconds at 19.2 kbps fits ~92 packets — more than one whole
	// document's clear prefix plus a second one's start: the speedup
	// should be substantial.
	if on.MeanResponseTime > 0.7*off.MeanResponseTime {
		t.Errorf("prefetch speedup only %.2f→%.2f s; expected larger", off.MeanResponseTime, on.MeanResponseTime)
	}
}

func TestPrefetchHitRate(t *testing.T) {
	p := prefetchFastParams()
	pp := DefaultPrefetchParams()
	res, err := RunPrefetch(p, pp)
	if err != nil {
		t.Fatal(err)
	}
	// The top candidate (weight 1) is picked ~44% of the time and is
	// always prefetched first; the second (weight 1/2) usually gets the
	// budget remainder. Hit rate must be well above the top-1 pick rate
	// alone and waste must be non-zero (unopened candidates).
	if res.HitRate < 0.4 {
		t.Errorf("hit rate %.2f, want >= 0.4", res.HitRate)
	}
	if res.WastedPerDoc <= 0 {
		t.Error("no wasted packets despite unopened candidates")
	}
	if res.PrefetchedPerDoc <= 0 {
		t.Error("no prefetched packets used")
	}
}

func TestPrefetchDisabledSpendsNoPackets(t *testing.T) {
	p := prefetchFastParams()
	pp := DefaultPrefetchParams()
	pp.Enabled = false
	res, err := RunPrefetch(p, pp)
	if err != nil {
		t.Fatal(err)
	}
	if res.HitRate != 0 || res.PrefetchedPerDoc != 0 || res.WastedPerDoc != 0 {
		t.Errorf("disabled prefetch still moved packets: %+v", res)
	}
}

func TestPrefetchDeterministic(t *testing.T) {
	p := prefetchFastParams()
	pp := DefaultPrefetchParams()
	a, err := RunPrefetch(p, pp)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < seededRuns; i++ {
		b, err := RunPrefetch(p, pp)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("run %d of one seed gave %+v, run 0 %+v", i, b, a)
		}
	}
}

func TestPrefetchWorksAtHighAlpha(t *testing.T) {
	p := prefetchFastParams()
	p.Alpha = 0.4
	pp := DefaultPrefetchParams()
	on, err := RunPrefetch(p, pp)
	if err != nil {
		t.Fatal(err)
	}
	pp.Enabled = false
	off, err := RunPrefetch(p, pp)
	if err != nil {
		t.Fatal(err)
	}
	if on.MeanResponseTime >= off.MeanResponseTime {
		t.Errorf("α=0.4: prefetch on %.2fs not below off %.2fs", on.MeanResponseTime, off.MeanResponseTime)
	}
}

// TestPrefetchThinkTimeAndFanOut: a shorter think time buys fewer packets
// of the opened document, and a fan-out of one candidate spends the whole
// window on the document the user opens.
func TestPrefetchThinkTimeAndFanOut(t *testing.T) {
	p := prefetchFastParams()
	base, err := RunPrefetch(p, DefaultPrefetchParams())
	if err != nil {
		t.Fatal(err)
	}
	pp := DefaultPrefetchParams()
	pp.ThinkTime = 2 * time.Second
	short, err := RunPrefetch(p, pp)
	if err != nil {
		t.Fatal(err)
	}
	if short.PrefetchedPerDoc >= base.PrefetchedPerDoc {
		t.Errorf("2 s think time prefetched %.1f packets per document, 10 s %.1f", short.PrefetchedPerDoc, base.PrefetchedPerDoc)
	}
	pp = DefaultPrefetchParams()
	pp.Candidates = 1
	one, err := RunPrefetch(p, pp)
	if err != nil {
		t.Fatal(err)
	}
	if one.HitRate != 1 || one.WastedPerDoc != 0 {
		t.Errorf("one candidate: hit rate %.2f, %.1f packets wasted per document; want 1 and 0", one.HitRate, one.WastedPerDoc)
	}
}
