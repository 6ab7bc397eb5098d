//go:build race

package fountain

// raceEnabled: under the race detector sync.Pool drops a share of its
// Puts on purpose, so pooled scratch shows up as allocations.
const raceEnabled = true
