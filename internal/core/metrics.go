package core

import "mobweb/internal/obs"

// Package-wide receiver counters, mirroring erasure's: zero-valued obs
// metrics with no registration step, because receivers are created by
// whatever layer drives the fetch and plans are shared process-wide.
// Front ends expose them by registering MetricsProbe under "core".
var coreMetrics struct {
	// decodes counts generations whose raw packets a receiver assembled,
	// once each: a solve for any that did not arrive, a copy otherwise.
	decodes obs.Counter
	// frameMarshals counts wire frames marshalled, one per row of every
	// block Plan.CookBlock cooks. The frame cache exists to flatten this
	// curve: under load the counter should track distinct frames, not
	// frames sent.
	frameMarshals obs.Counter
}

// MetricsProbe returns the package-wide receiver counters in snapshot
// form, for obs.Registry.RegisterProbe.
func MetricsProbe() any {
	return map[string]int64{
		"decodes":        coreMetrics.decodes.Value(),
		"frame_marshals": coreMetrics.frameMarshals.Value(),
	}
}

// SetTrace attaches a fetch timeline to the receiver: every decode is
// recorded as it happens. A nil trace detaches.
func (r *Receiver) SetTrace(t *obs.Trace) { r.trace = t }
