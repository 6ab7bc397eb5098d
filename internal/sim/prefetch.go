package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"mobweb/internal/channel"
	"mobweb/internal/content"
	"mobweb/internal/core"
	"mobweb/internal/packet"
	"mobweb/internal/prefetch"
	"mobweb/internal/trace"
	"mobweb/internal/transport"
)

// PrefetchParams extends the browsing model with §6's intelligent
// prefetching: while the user reads ("think time"), the idle downlink
// prefetches the clear-text prefixes of the candidate next documents,
// allocated by likelihood.
type PrefetchParams struct {
	// Enabled turns prefetching on; disabled sessions still spend the
	// think time, so response times are comparable.
	Enabled bool
	// Candidates is the fan-out of plausible next documents per step
	// (search hits / cluster links).
	Candidates int
	// ThinkTime is the idle period per document during which the
	// channel can prefetch.
	ThinkTime time.Duration
}

// DefaultPrefetchParams models a user skimming hits for ten seconds.
func DefaultPrefetchParams() PrefetchParams {
	return PrefetchParams{Enabled: true, Candidates: 5, ThinkTime: 10 * time.Second}
}

// PrefetchResult aggregates a prefetch-enabled session.
type PrefetchResult struct {
	// MeanResponseTime is the mean time from requesting a document to
	// its full reconstruction, in seconds.
	MeanResponseTime float64
	// HitRate is the fraction of opened documents that had at least one
	// prefetched packet.
	HitRate float64
	// PrefetchedPerDoc is the mean packets prefetched for the opened
	// document.
	PrefetchedPerDoc float64
	// WastedPerDoc is the mean packets prefetched for candidates the
	// user did not open.
	WastedPerDoc float64
}

// RunPrefetch simulates a browsing session with candidate fan-out and
// idle-time prefetching. All documents are downloaded in full with
// Caching, isolating the prefetch benefit from relevance filtering.
func RunPrefetch(p Params, pp PrefetchParams) (PrefetchResult, error) {
	if err := p.validate(); err != nil {
		return PrefetchResult{}, err
	}
	if pp.Candidates < 1 {
		return PrefetchResult{}, fmt.Errorf("sim: prefetch candidates %d, want >= 1", pp.Candidates)
	}
	if pp.ThinkTime < 0 {
		return PrefetchResult{}, fmt.Errorf("sim: negative think time")
	}

	var totalResponse time.Duration
	var hits, opened int
	var prefetchedUsed, wasted int

	for rep := 0; rep < p.Repetitions; rep++ {
		rng := rand.New(rand.NewSource(p.Seed + int64(rep)*7919))
		model, err := channel.NewBernoulli(p.Alpha, p.Seed^int64(rep+1)*104729)
		if err != nil {
			return PrefetchResult{}, err
		}
		ch, err := channel.New(channel.Config{Model: model, BandwidthBPS: p.BandwidthBPS})
		if err != nil {
			return PrefetchResult{}, err
		}
		frameSize := packet.FrameSize(p.PacketSize)

		for d := 0; d < p.Documents; d++ {
			// Candidate pool with descending plausibility weights.
			type cand struct {
				plan *core.Plan
				rcv  *core.Receiver
				sent int
			}
			cands := make([]cand, pp.Candidates)
			weights := make([]float64, pp.Candidates)
			pcands := make([]prefetch.Candidate, pp.Candidates)
			byName := make(map[string]int, pp.Candidates)
			for i := range cands {
				doc, scores, err := trace.Generate(p.Doc, rng)
				if err != nil {
					return PrefetchResult{}, err
				}
				plan, err := core.NewPlanWithScores(doc, scores, core.Config{
					PacketSize: p.PacketSize,
					LOD:        p.LOD,
					Notion:     content.NotionIC,
					Gamma:      p.Gamma,
				})
				if err != nil {
					return PrefetchResult{}, err
				}
				rcv, err := core.NewReceiver(plan)
				if err != nil {
					return PrefetchResult{}, err
				}
				cands[i] = cand{plan: plan, rcv: rcv}
				weights[i] = 1 / float64(i+1) // Zipf-flavored pick bias
				name := fmt.Sprintf("c%d", i)
				byName[name] = i
				pcands[i] = prefetch.Candidate{
					Name:          name,
					Score:         weights[i],
					TotalPackets:  plan.N(),
					UsefulPackets: plan.M(), // clear-text prefix only
				}
			}

			// Idle window: think, and (optionally) prefetch into it.
			thinkEnd := ch.Now() + pp.ThinkTime
			if pp.Enabled {
				budget := prefetch.Budget(pp.ThinkTime.Seconds(), p.BandwidthBPS, frameSize)
				allocs, err := prefetch.Plan(pcands, budget)
				if err != nil {
					return PrefetchResult{}, err
				}
				for _, alloc := range allocs {
					c := &cands[byName[alloc.Name]]
					for k := 0; k < alloc.Packets && c.sent < c.plan.N(); k++ {
						delivery := ch.Send(frameSize)
						if delivery.Outcome == channel.Intact {
							payload, err := c.plan.CookedPayload(c.sent)
							if err != nil {
								return PrefetchResult{}, err
							}
							if err := c.rcv.Add(c.sent, payload); err != nil {
								return PrefetchResult{}, err
							}
						}
						c.sent++
					}
				}
			}
			ch.AdvanceTo(maxDuration(ch.Now(), thinkEnd))

			// The user opens one candidate, likelihood-weighted.
			pick := weightedPick(rng, weights)
			c := &cands[pick]
			opened++
			if c.rcv.IntactCount() > 0 {
				hits++
				prefetchedUsed += c.rcv.IntactCount()
			}
			for i := range cands {
				if i != pick {
					wasted += cands[i].sent
				}
			}

			// Demand fetch: the client starts from the prefetched packets,
			// and the server continues from where the prefetch stopped,
			// skipping held rows; later rounds start over from row 0.
			start := ch.Now()
			opts := transport.FetchOptions{Caching: true, MaxRounds: p.MaxRounds}
			_, err := transport.SimulateFetch(ch, c.plan.Layout(), opts, c.rcv,
				transport.UnheldRows(c.plan.N(), c.sent), c.plan.CookedPayload)
			if err != nil && !errors.Is(err, transport.ErrRoundsExhausted) {
				return PrefetchResult{}, err
			}
			totalResponse += ch.Now() - start
		}
	}

	docs := float64(opened)
	return PrefetchResult{
		MeanResponseTime: (totalResponse / time.Duration(opened)).Seconds(),
		HitRate:          float64(hits) / docs,
		PrefetchedPerDoc: float64(prefetchedUsed) / docs,
		WastedPerDoc:     float64(wasted) / docs,
	}, nil
}

func weightedPick(rng *rand.Rand, weights []float64) int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	x := rng.Float64() * total
	for i, w := range weights {
		x -= w
		if x <= 0 {
			return i
		}
	}
	return len(weights) - 1
}

func maxDuration(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
