package core

import "mobweb/internal/obs"

// Package-wide receiver counters, mirroring erasure's: zero-valued obs
// metrics with no registration step, because receivers are created by
// whatever layer drives the fetch and plans are shared process-wide.
// Front ends expose them by registering MetricsProbe under "core".
var coreMetrics struct {
	// decodes counts erasure decodes performed by receivers; memoHits
	// counts decodes answered by the per-generation memo instead.
	decodes, memoHits obs.Counter
	// frameMarshals counts wire-frame marshals (Plan.Frame, Plan.FountainFrame). The
	// frame cache exists to flatten this curve: under load the counter
	// should track distinct frames, not frames sent.
	frameMarshals obs.Counter
}

// MetricsProbe returns the package-wide receiver counters in snapshot
// form, for obs.Registry.RegisterProbe.
func MetricsProbe() any {
	return map[string]int64{
		"decodes":          coreMetrics.decodes.Value(),
		"decode_memo_hits": coreMetrics.memoHits.Value(),
		"frame_marshals":   coreMetrics.frameMarshals.Value(),
	}
}

// SetTrace attaches a fetch timeline to the receiver: every decode (and
// decode-memo hit) is recorded as it happens. A nil trace detaches.
func (r *Receiver) SetTrace(t *obs.Trace) { r.trace = t }
