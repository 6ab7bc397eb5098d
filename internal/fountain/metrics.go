package fountain

import "mobweb/internal/obs"

// Package-wide fountain counters, following the erasure package's
// pattern: zero-valued obs metrics (atomic, always usable, no registry
// required) because encoders are created per plan with no natural owner
// to thread a registry through. A front end that owns an obs.Registry
// exposes them by registering MetricsProbe under a name like "fountain".
// What decoders consume is counted by the erasure probe, for both codecs.
var fountainMetrics struct {
	// packetsGenerated counts cooked payloads produced by encoders.
	packetsGenerated obs.Counter
}

// MetricsProbe returns the package-wide fountain counters in snapshot
// form, for obs.Registry.RegisterProbe.
func MetricsProbe() any {
	return map[string]int64{
		"packets_generated": fountainMetrics.packetsGenerated.Value(),
	}
}
