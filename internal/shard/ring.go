// Package shard implements the sharded replica tier of ROADMAP item 1:
// a consistent-hash ring of mrtserver replicas behind a front tier
// (cmd/mrtfront) that health-checks them, admits and sheds load before
// starving in-flight retransmission rounds, aggregates per-replica
// capability tiers, and routes each fetch to the first usable replica on
// the ring. A replica death mid-fetch ends the client's stream; the
// client's own resume, with its Have list, is routed to the next replica
// — so the death costs a redial and a round, not the packets held.
//
// Plans are deterministic per (corpus, doc, query, LOD, notion, γ) —
// TestPlanLayoutsReproducibleAcrossEngines holds the planning packages
// to that — so every replica serving the same corpus produces
// byte-identical frames for a given cooked sequence number. A resume
// therefore preserves byte-identity: the next replica continues the same
// stream the dead one was sending.
package shard

import (
	"fmt"
	"sort"
)

// DefaultVNodes is the virtual-node count per replica: enough points
// that removing one replica spreads its keyspace across the survivors
// in roughly equal slices.
const DefaultVNodes = 64

// ringPoint is one virtual node: a position on the hash circle owned by
// a replica.
type ringPoint struct {
	hash    uint64
	replica int
}

// Ring is an immutable consistent-hash ring mapping canonical document
// IDs onto replica indices. Build it once with NewRing; Successors is
// then safe for concurrent use and, with a reused buffer, allocation-free.
type Ring struct {
	points   []ringPoint
	replicas int
}

// NewRing hashes each replica name onto the circle vnodes times.
// Hashing by name (not index) keeps a document's home replica stable
// when the fleet list is reordered or extended.
func NewRing(names []string, vnodes int) (*Ring, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("shard: ring needs at least one replica")
	}
	if len(names) > MaxReplicas {
		return nil, fmt.Errorf("shard: %d replicas exceeds the %d-replica fleet bound", len(names), MaxReplicas)
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	seen := make(map[string]bool, len(names))
	r := &Ring{points: make([]ringPoint, 0, len(names)*vnodes), replicas: len(names)}
	for i, name := range names {
		if name == "" {
			return nil, fmt.Errorf("shard: replica %d has an empty name", i)
		}
		if seen[name] {
			return nil, fmt.Errorf("shard: duplicate replica name %q", name)
		}
		seen[name] = true
		for v := 0; v < vnodes; v++ {
			h := fnv1a(name)
			h = fnv1aByte(h, '#')
			h = fnv1aUint(h, uint64(v))
			r.points = append(r.points, ringPoint{hash: h, replica: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Tie-break on replica index so the ring order is total even in
		// the astronomically unlikely event of a 64-bit collision.
		return r.points[a].replica < r.points[b].replica
	})
	return r, nil
}

// search returns the index of the first point with hash >= h, wrapping
// to 0 past the end. Open-coded binary search keeps Successors allocation-free
// (sort.Search would force the closure to escape).
func (r *Ring) search(h uint64) int {
	lo, hi := 0, len(r.points)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.points[mid].hash < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(r.points) {
		return 0
	}
	return lo
}

// Successors appends the distinct replicas in ring order starting at the
// document's home — the failover walk order for re-routing. The result
// always lists every replica exactly once, home first. buf is reused
// when it has capacity.
func (r *Ring) Successors(doc string, buf []int) []int {
	out := buf[:0]
	seen := 0 // bitmask; replica fleets are small by construction
	start := r.search(fnv1a(doc))
	for i := 0; i < len(r.points) && len(out) < r.replicas; i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen&(1<<uint(p.replica)) != 0 {
			continue
		}
		seen |= 1 << uint(p.replica)
		out = append(out, p.replica)
	}
	return out
}

// MaxReplicas bounds a ring's fleet size; the Successors bitmask and the
// front tier's bookkeeping assume it.
const MaxReplicas = 63

// fnv1a is the 64-bit FNV-1a hash of s, inlined so the routing hot path
// does not allocate a hash.Hash64.
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// fnv1aByte folds one byte into an FNV-1a state.
func fnv1aByte(h uint64, b byte) uint64 {
	h ^= uint64(b)
	h *= 1099511628211
	return h
}

// fnv1aUint folds an integer into an FNV-1a state, little-end first.
func fnv1aUint(h uint64, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= 1099511628211
		v >>= 8
	}
	return h
}
