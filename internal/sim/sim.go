// Package sim implements the evaluation model of §5: simulated browsing
// sessions over a weakly-connected channel, measuring the mean response
// time to visit a document under fault-tolerant multi-resolution
// transmission with Caching or NoCaching retransmission.
//
// A session visits a number of random documents (Table 2: 200); a
// fraction I of them is irrelevant and is discarded once information
// content F has been received. Relevant documents download until
// reconstructible. A round that transmits all N cooked packets without
// reaching the termination condition is "stalled" and triggers a
// retransmission; Caching keeps the intact packets across rounds while
// NoCaching starts from scratch (stock HTTP reload). The experiment is
// repeated and the mean of the per-repetition mean response times is
// reported, with its standard deviation.
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"mobweb/internal/channel"
	"mobweb/internal/content"
	"mobweb/internal/core"
	"mobweb/internal/document"
	"mobweb/internal/trace"
	"mobweb/internal/transport"
)

// Params bundles the experimental parameters of Table 2.
type Params struct {
	// Doc describes the simulated document population (sD, δ, skeleton).
	Doc trace.DocSpec
	// PacketSize is the raw packet size sp.
	PacketSize int
	// Gamma is the redundancy ratio γ = N/M.
	Gamma float64
	// BandwidthBPS is the wireless bandwidth B.
	BandwidthBPS float64
	// Alpha is the per-packet corruption probability α.
	Alpha float64
	// Irrelevant is the fraction I of irrelevant documents.
	Irrelevant float64
	// Threshold is the information content F at which an irrelevant
	// document is discovered to be irrelevant.
	Threshold float64
	// LOD is the level of detail whose units are ranked for transmission.
	LOD document.LOD
	// Caching selects whether intact packets survive across
	// retransmission rounds.
	Caching bool
	// Documents is the number of documents visited per session.
	Documents int
	// Repetitions is the number of session repetitions averaged.
	Repetitions int
	// MaxRounds caps retransmission rounds per document so hopeless
	// configurations (NoCaching at high α with low γ) terminate; capped
	// documents are counted in Result.CappedDocs.
	MaxRounds int
	// Seed drives all randomness; equal seeds give identical results.
	Seed int64
	// Burst, when enabled, replaces the paper's i.i.d. corruption with a
	// Gilbert-Elliott burst channel — an extension for studying
	// sensitivity to error clustering.
	Burst BurstSpec
}

// BurstSpec parameterizes the Gilbert-Elliott channel extension. When
// Enabled, Alpha is ignored in favour of the two-state model.
type BurstSpec struct {
	// Enabled switches the burst model on.
	Enabled bool
	// PGoodToBad and PBadToGood are the state transition probabilities.
	PGoodToBad, PBadToGood float64
	// AlphaGood and AlphaBad are the per-state corruption probabilities.
	AlphaGood, AlphaBad float64
}

// SteadyStateAlpha returns the long-run corruption rate of the burst
// spec, for calibrating against an i.i.d. baseline.
func (b BurstSpec) SteadyStateAlpha() float64 {
	denom := b.PGoodToBad + b.PBadToGood
	if denom == 0 {
		return b.AlphaGood
	}
	piBad := b.PGoodToBad / denom
	return piBad*b.AlphaBad + (1-piBad)*b.AlphaGood
}

// DefaultParams returns Table 2's settings (50 repetitions, 200
// documents, document LOD, Caching off matches the paper's NoCaching
// baseline — experiments toggle fields as needed).
func DefaultParams() Params {
	return Params{
		Doc:          trace.Default(),
		PacketSize:   256,
		Gamma:        1.5,
		BandwidthBPS: channel.DefaultBandwidthBPS,
		Alpha:        0.1,
		Irrelevant:   0.5,
		Threshold:    0.5,
		LOD:          document.LODDocument,
		Caching:      false,
		Documents:    200,
		Repetitions:  50,
		MaxRounds:    50,
		Seed:         1,
	}
}

func (p Params) validate() error {
	if err := p.Doc.Validate(); err != nil {
		return err
	}
	if p.PacketSize < 1 {
		return fmt.Errorf("sim: packet size %d", p.PacketSize)
	}
	if p.Gamma < 1 {
		return fmt.Errorf("sim: gamma %v < 1", p.Gamma)
	}
	if p.Alpha < 0 || p.Alpha >= 1 {
		return fmt.Errorf("sim: alpha %v outside [0, 1)", p.Alpha)
	}
	if p.Irrelevant < 0 || p.Irrelevant > 1 {
		return fmt.Errorf("sim: irrelevant fraction %v outside [0, 1]", p.Irrelevant)
	}
	if p.Threshold < 0 || p.Threshold > 1 {
		return fmt.Errorf("sim: threshold %v outside [0, 1]", p.Threshold)
	}
	if !p.LOD.Valid() {
		return fmt.Errorf("sim: invalid LOD %d", int(p.LOD))
	}
	if p.Documents < 1 || p.Repetitions < 1 || p.MaxRounds < 1 {
		return fmt.Errorf("sim: documents/repetitions/rounds must be >= 1")
	}
	return nil
}

// Result aggregates a simulation run.
type Result struct {
	// MeanResponseTime is the mean of the per-repetition mean response
	// times, in seconds — the quantity plotted in Figures 4 and 5.
	MeanResponseTime float64
	// StdDev is the standard deviation of the per-repetition means
	// (the paper reports 1-5% of the mean in most trials).
	StdDev float64
	// MeanRounds is the average transmission rounds per document.
	MeanRounds float64
	// StallRate is the fraction of documents that stalled at least once.
	StallRate float64
	// PacketsPerDoc is the mean cooked packets transmitted per document.
	PacketsPerDoc float64
	// CappedDocs counts documents that hit MaxRounds without completing.
	CappedDocs int
}

// Run executes the simulation.
func Run(p Params) (Result, error) {
	if err := p.validate(); err != nil {
		return Result{}, err
	}
	repMeans := make([]float64, 0, p.Repetitions)
	var totalRounds, totalPackets float64
	var stalledDocs, cappedDocs, totalDocs int

	for rep := 0; rep < p.Repetitions; rep++ {
		rng := rand.New(rand.NewSource(p.Seed + int64(rep)*7919))
		model, err := p.errorModel(p.Seed ^ int64(rep+1)*104729)
		if err != nil {
			return Result{}, err
		}
		ch, err := channel.New(channel.Config{Model: model, BandwidthBPS: p.BandwidthBPS})
		if err != nil {
			return Result{}, err
		}
		var sessionTime time.Duration
		for d := 0; d < p.Documents; d++ {
			doc, scores, err := trace.Generate(p.Doc, rng)
			if err != nil {
				return Result{}, err
			}
			plan, err := core.NewPlanWithScores(doc, scores, core.Config{
				PacketSize: p.PacketSize,
				LOD:        p.LOD,
				Notion:     content.NotionIC,
				Gamma:      p.Gamma,
			})
			if err != nil {
				return Result{}, err
			}
			irrelevant := rng.Float64() < p.Irrelevant
			visit, err := visitDocument(ch, plan, irrelevant, p)
			if err != nil {
				return Result{}, err
			}
			sessionTime += visit.responseTime
			totalRounds += float64(visit.rounds)
			totalPackets += float64(visit.packetsSent)
			if visit.stalled {
				stalledDocs++
			}
			if visit.capped {
				cappedDocs++
			}
			totalDocs++
		}
		repMeans = append(repMeans, sessionTime.Seconds()/float64(p.Documents))
	}

	mean, std := meanStd(repMeans)
	return Result{
		MeanResponseTime: mean,
		StdDev:           std,
		MeanRounds:       totalRounds / float64(totalDocs),
		StallRate:        float64(stalledDocs) / float64(totalDocs),
		PacketsPerDoc:    totalPackets / float64(totalDocs),
		CappedDocs:       cappedDocs,
	}, nil
}

// errorModel builds the channel's corruption model: the paper's i.i.d.
// Bernoulli(α) by default, Gilbert-Elliott when the burst extension is
// enabled.
func (p Params) errorModel(seed int64) (channel.ErrorModel, error) {
	if p.Burst.Enabled {
		return channel.NewGilbertElliott(
			p.Burst.PGoodToBad, p.Burst.PBadToGood,
			p.Burst.AlphaGood, p.Burst.AlphaBad, seed)
	}
	return channel.NewBernoulli(p.Alpha, seed)
}

// visitOutcome describes one document visit.
type visitOutcome struct {
	responseTime time.Duration
	rounds       int
	packetsSent  int
	stalled      bool
	capped       bool
}

// visitDocument transmits one document until a termination condition of
// §4.2 fires: the client can reconstruct the whole document; or (for an
// irrelevant document) accrued information content reaches F and the user
// hits "stop". A round that ends without termination is a stall and
// triggers retransmission, with or without the packet cache. The client
// is the transport's fetch machine; the server is the paper's, which
// re-sends all N rows every round.
func visitDocument(ch *channel.Channel, plan *core.Plan, irrelevant bool, p Params) (visitOutcome, error) {
	// F = 0 is the artificial point of Figure 5: the document is
	// discarded without downloading anything.
	if irrelevant && p.Threshold == 0 {
		return visitOutcome{}, nil
	}
	opts := transport.FetchOptions{Caching: p.Caching, MaxRounds: p.MaxRounds}
	if irrelevant {
		opts.StopAtIC = p.Threshold
	}
	n := plan.N()
	// Every round re-sends the same rows and a plan keeps no parity, so
	// the visit keeps each payload it has cooked.
	cooked := make([][]byte, n)
	cook := func(seq int) ([]byte, error) {
		var err error
		if cooked[seq] == nil {
			cooked[seq], err = plan.CookedPayload(seq)
		}
		return cooked[seq], err
	}
	allRows := func(_ *transport.Request, send func(int) bool) {
		for seq := 0; seq < n && send(seq); seq++ {
		}
	}
	start := ch.Now()
	res, err := transport.SimulateFetch(ch, plan.Layout(), opts, nil, allRows, cook)
	out := visitOutcome{responseTime: ch.Now() - start}
	if res != nil {
		out.rounds, out.packetsSent, out.stalled = res.Rounds, res.PacketsReceived, res.Stalled
	}
	if errors.Is(err, transport.ErrRoundsExhausted) {
		out.capped, err = true, nil
	}
	return out, err
}

func meanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(ss / float64(len(xs)-1))
}

// Improvement runs the simulation at the document LOD and at the given
// LOD and returns the response-time ratio document/lod — the
// "improvement" metric of Figures 6 and 7 (values above 1 mean the finer
// LOD is faster).
func Improvement(p Params, lod document.LOD) (float64, error) {
	base := p
	base.LOD = document.LODDocument
	baseRes, err := Run(base)
	if err != nil {
		return 0, err
	}
	fine := p
	fine.LOD = lod
	fineRes, err := Run(fine)
	if err != nil {
		return 0, err
	}
	if fineRes.MeanResponseTime == 0 {
		return 0, fmt.Errorf("sim: zero response time at %v", lod)
	}
	return baseRes.MeanResponseTime / fineRes.MeanResponseTime, nil
}
