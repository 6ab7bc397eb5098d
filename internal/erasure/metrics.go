package erasure

import "mobweb/internal/obs"

// Package-wide codec counters. They are zero-valued obs metrics (always
// usable, atomic, no registration needed) rather than registry-resolved
// pointers because coders are shared process-wide (see Shared) and have
// no natural owner to thread a registry through; the cost is one atomic
// add per cooked row, nowhere near the per-byte GF(2^8) work it
// annotates. A front end that owns an obs.Registry exposes them by
// registering MetricsProbe under a name like "erasure".
var codecMetrics struct {
	// parityRows counts parity rows encoded, one per EncodeParityRowInto
	// call: a plan keeps none, so on the server each is a row of a
	// frame block cooked on a frame-cache miss past a clear-text prefix.
	parityRows obs.Counter
	// packetsConsumed counts distinct packets fed to decoders of either
	// codec; packetsNeeded accumulates M per completed generation, so
	// consumed/needed is the fleet-wide reception overhead ratio.
	packetsConsumed, packetsNeeded obs.Counter
	// overshootPackets/Bytes count reception beyond the M minimum of
	// completed generations; packetsRedundant counts the held repairs
	// their solves left unused.
	overshootPackets, overshootBytes, packetsRedundant obs.Counter
}

// MetricsProbe returns the package-wide codec counters in snapshot form,
// for obs.Registry.RegisterProbe.
func MetricsProbe() any {
	return map[string]int64{
		"parity_rows":       codecMetrics.parityRows.Value(),
		"packets_consumed":  codecMetrics.packetsConsumed.Value(),
		"packets_needed":    codecMetrics.packetsNeeded.Value(),
		"overshoot_packets": codecMetrics.overshootPackets.Value(),
		"overshoot_bytes":   codecMetrics.overshootBytes.Value(),
		"packets_redundant": codecMetrics.packetsRedundant.Value(),
	}
}
