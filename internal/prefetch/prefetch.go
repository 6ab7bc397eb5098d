// Package prefetch implements the intelligent-prefetching policy §6
// lists as future work: "investigating intelligent prefetching based on
// information content and user-profiling, utilizing the unused wireless
// bandwidth being left idle".
//
// While the user reads the current document, the downlink is idle; a
// prefetcher spends that idle budget pulling the clear-text prefixes of
// candidate next documents (search hits, cluster neighbours), weighted by
// how likely the user is to open them (profile/search score). Because
// the systematic dispersal code puts the highest-content units in the
// first packets, even a partial prefetch delivers the part of a document
// that lets the user judge relevance instantly.
package prefetch

import (
	"fmt"
	"sort"
)

// Candidate is one prefetchable document.
type Candidate struct {
	// Name identifies the document.
	Name string
	// Score is the relative likelihood the user opens it next (profile
	// match, search score, recommender output...). Must be >= 0.
	Score float64
	// TotalPackets is the document's cooked packet count N.
	TotalPackets int
	// UsefulPackets caps how many packets are worth prefetching — the
	// clear-text prefix (M), or fewer when only a relevance-judgment
	// fraction is wanted. Zero means TotalPackets.
	UsefulPackets int
	// HavePackets counts packets the client already holds toward the
	// document — from earlier idle windows or foreground fetches; the
	// transport client reports it as Client.Held.
	HavePackets int
}

// Allocation assigns part of the idle budget to one candidate.
type Allocation struct {
	// Name is the candidate document.
	Name string
	// Packets is how many additional packets to prefetch now.
	Packets int
}

// Plan splits an idle-window budget (in packets) across candidates.
//
// The policy is expected-utility greedy: candidates are served in
// descending Score order (ties in the order given), each up to its
// remaining useful packets, until the budget runs out. Proportional
// splitting would dilute the budget across documents that each end up
// unusable; front-loading the most likely document maximizes the
// probability that the user's actual next request is already cached —
// the same "most content-bearing first" principle the paper applies
// within a document, lifted to the collection level.
func Plan(candidates []Candidate, budgetPackets int) ([]Allocation, error) {
	if budgetPackets < 0 {
		return nil, fmt.Errorf("prefetch: negative budget %d", budgetPackets)
	}
	for _, c := range candidates {
		if c.Score < 0 {
			return nil, fmt.Errorf("prefetch: candidate %q has negative score", c.Name)
		}
		if c.TotalPackets < 0 || c.HavePackets < 0 || c.UsefulPackets < 0 {
			return nil, fmt.Errorf("prefetch: candidate %q has negative packet counts", c.Name)
		}
	}
	order := make([]Candidate, len(candidates))
	copy(order, candidates)
	sort.SliceStable(order, func(i, j int) bool { return order[i].Score > order[j].Score })

	var out []Allocation
	remaining := budgetPackets
	for _, c := range order {
		if remaining == 0 {
			break
		}
		useful := c.UsefulPackets
		if useful == 0 || useful > c.TotalPackets {
			useful = c.TotalPackets
		}
		want := useful - c.HavePackets
		if want <= 0 {
			continue
		}
		if want > remaining {
			want = remaining
		}
		out = append(out, Allocation{Name: c.Name, Packets: want})
		remaining -= want
	}
	return out, nil
}

// Budget converts an idle duration into a packet budget for a given
// frame size and bandwidth.
func Budget(idleSeconds, bandwidthBPS float64, frameBytes int) int {
	if idleSeconds <= 0 || bandwidthBPS <= 0 || frameBytes <= 0 {
		return 0
	}
	return int(idleSeconds * bandwidthBPS / float64(frameBytes*8))
}
