package fountain

import "mobweb/internal/obs"

// Package-wide fountain counters, following the erasure package's
// pattern: zero-valued obs metrics (atomic, always usable, no registry
// required) because encoders and decoders are created per plan and per
// fetch with no natural owner to thread a registry through. A front end
// that owns an obs.Registry exposes them by registering MetricsProbe
// under a name like "fountain".
var fountainMetrics struct {
	// packetsGenerated counts cooked payloads produced by encoders;
	// packetsConsumed counts distinct payloads fed to decoders.
	packetsGenerated, packetsConsumed obs.Counter
	// packetsNeeded accumulates k per completed generation, so
	// consumed/needed is the fleet-wide reception overhead ratio.
	packetsNeeded obs.Counter
	// overshootPackets/Bytes count reception beyond the k minimum.
	overshootPackets, overshootBytes obs.Counter
	// packetsRedundant counts packets that reduced to zero (linearly
	// dependent on what was already held).
	packetsRedundant obs.Counter
	// peelRecovered/gaussRecovered split symbol recoveries by what the
	// resolved row went through: substitutions of already-recovered
	// symbols only (all a peeling decoder can do), or at least one
	// elimination against a then-unresolved row. peelDecodes/gaussDecodes
	// split completed generations by whether any symbol needed the latter.
	peelRecovered, gaussRecovered obs.Counter
	peelDecodes, gaussDecodes     obs.Counter
}

// MetricsProbe returns the package-wide fountain counters in snapshot
// form, for obs.Registry.RegisterProbe.
func MetricsProbe() any {
	return map[string]int64{
		"packets_generated": fountainMetrics.packetsGenerated.Value(),
		"packets_consumed":  fountainMetrics.packetsConsumed.Value(),
		"packets_needed":    fountainMetrics.packetsNeeded.Value(),
		"overshoot_packets": fountainMetrics.overshootPackets.Value(),
		"overshoot_bytes":   fountainMetrics.overshootBytes.Value(),
		"packets_redundant": fountainMetrics.packetsRedundant.Value(),
		"peel_recovered":    fountainMetrics.peelRecovered.Value(),
		"gauss_recovered":   fountainMetrics.gaussRecovered.Value(),
		"peel_decodes":      fountainMetrics.peelDecodes.Value(),
		"gauss_decodes":     fountainMetrics.gaussDecodes.Value(),
	}
}
