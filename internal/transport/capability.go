package transport

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Capability is a replica's degraded-operation tier: the fallback tree a
// fleet walks instead of failing all-or-nothing when a replica is
// overloaded, recovering, or partially broken. Tiers are ordered from
// most to least capable; a request that needs a higher tier than the
// replica offers is refused with ErrDegraded (carrying the tier name), so
// clients and the front tier can fall back deliberately:
//
//	CapFull            everything: fetch, prefetch, any γ, search
//	CapFetchDegraded   fetches served with γ clamped (cheaper parity
//	                   budget), prefetch refused (idle-time traffic is
//	                   the first thing shed), search up
//	CapClearPrefixOnly fetches stream only the clear (systematic) prefix
//	                   of each generation — no parity encoding at all;
//	                   clean channels still reconstruct, lossy channels
//	                   pay extra rounds; search up
//	CapSearchOnly      no fetch streams at all; search up
//	CapDown            nothing — used by the front tier for replicas it
//	                   has marked down; a replica never self-reports it
type Capability int32

const (
	CapFull Capability = iota
	CapFetchDegraded
	CapClearPrefixOnly
	CapSearchOnly
	CapDown
)

// String returns the tier's stable wire name.
func (c Capability) String() string {
	switch c {
	case CapFull:
		return "full"
	case CapFetchDegraded:
		return "fetch-degraded"
	case CapClearPrefixOnly:
		return "clear-prefix"
	case CapSearchOnly:
		return "search-only"
	case CapDown:
		return "down"
	default:
		return fmt.Sprintf("capability(%d)", int32(c))
	}
}

// ParseCapability maps a wire name back to the tier; the empty string is
// CapFull (an old replica that predates capability reporting serves
// everything).
func ParseCapability(s string) (Capability, error) {
	switch s {
	case "", "full":
		return CapFull, nil
	case "fetch-degraded":
		return CapFetchDegraded, nil
	case "clear-prefix":
		return CapClearPrefixOnly, nil
	case "search-only":
		return CapSearchOnly, nil
	case "down":
		return CapDown, nil
	default:
		return CapFull, fmt.Errorf("transport: unknown capability %q", s)
	}
}

// AllowsFetch reports whether the tier serves fetch streams at all.
func (c Capability) AllowsFetch() bool { return c <= CapClearPrefixOnly }

// AllowsPrefetch reports whether the tier accepts prefetch streams;
// idle-time traffic is the first load a degrading replica sheds.
func (c Capability) AllowsPrefetch() bool { return c == CapFull }

// ClearPrefixOnly reports whether fetch streams send only each
// generation's source packets, under either codec.
func (c Capability) ClearPrefixOnly() bool { return c == CapClearPrefixOnly }

// ClampsGamma reports whether fetch requests get their redundancy ratio
// clamped to the server's degraded maximum.
func (c Capability) ClampsGamma() bool {
	return c == CapFetchDegraded || c == CapClearPrefixOnly
}

// CapabilityState is a replica's live capability tier: an atomic cell the
// operator (or an automated policy) moves along the fallback tree while
// streams are in flight. The zero value is CapFull. Safe for concurrent
// use.
type CapabilityState struct {
	v atomic.Int32
}

// NewCapabilityState returns a state pinned to the given tier.
func NewCapabilityState(c Capability) *CapabilityState {
	s := &CapabilityState{}
	s.Set(c)
	return s
}

// Set moves the replica to the given tier.
func (s *CapabilityState) Set(c Capability) { s.v.Store(int32(c)) }

// Mode returns the current tier; a nil state is CapFull.
func (s *CapabilityState) Mode() Capability {
	if s == nil {
		return CapFull
	}
	return Capability(s.v.Load())
}

// Probe returns the scrape-time payload for the "capability" probe on
// /debug/metrics, which the shard front tier's health checker reads.
func (s *CapabilityState) Probe() any {
	return map[string]string{"mode": s.Mode().String()}
}

// Admitter gates the start of fetch streams, the server-side half of
// admission control: new fetches are rejected (shed) before in-flight
// retransmission rounds are starved. Implementations must be safe for
// concurrent use; shard.Gate is the canonical one.
type Admitter interface {
	// Admit asks to start one fetch stream; resume marks a retransmission
	// or resume round of an already-admitted fetch (the client presented a
	// non-empty Have list), which is admitted from reserved headroom. On
	// ok, release must be called exactly once when the stream ends. On
	// !ok, retryAfter hints when the client should try again.
	Admit(resume bool) (release func(), retryAfter time.Duration, ok bool)
}
