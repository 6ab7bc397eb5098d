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
	// parityRows counts lazily materialized parity rows.
	parityRows obs.Counter
}

// MetricsProbe returns the package-wide codec counters in snapshot form,
// for obs.Registry.RegisterProbe.
func MetricsProbe() any {
	return map[string]int64{
		"parity_rows": codecMetrics.parityRows.Value(),
	}
}
