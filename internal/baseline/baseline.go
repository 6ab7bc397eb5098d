// Package baseline implements the transfer schemes FT-MRT is compared
// against: the conventional sequential reload (stock HTTP over an
// unreliable link), selective-repeat ARQ, and deflate compression over
// sequential transfer — the "alternative mechanisms such as compression
// or ARQ" §4.2 notes are implemented in systems like eNetwork Web
// Express. Each strategy transfers the same document body over the same
// simulated channel, so response times are directly comparable.
package baseline

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"time"

	"mobweb/internal/channel"
	"mobweb/internal/core"
	"mobweb/internal/erasure"
	"mobweb/internal/packet"
	"mobweb/internal/transport"
)

// Outcome is one transfer's result.
type Outcome struct {
	// Elapsed is the virtual time from request to complete delivery.
	Elapsed time.Duration
	// PacketsSent counts every frame put on the air, including
	// retransmissions.
	PacketsSent int
	// Completed reports whether the document was fully delivered within
	// the strategy's retry budget.
	Completed bool
}

// Strategy is one transfer scheme.
type Strategy interface {
	// Name identifies the strategy in tables.
	Name() string
	// Transfer delivers body over the channel in sp-byte packets and
	// reports the outcome. Implementations must be deterministic given
	// the channel's state.
	Transfer(ch *channel.Channel, body []byte, sp int) (Outcome, error)
}

// Sequential is the conventional paradigm: raw packets in order, and any
// corruption forces a full reload of the document (no packet cache, no
// redundancy).
type Sequential struct {
	// MaxAttempts caps full reloads; zero means 50.
	MaxAttempts int
}

var _ Strategy = Sequential{}

// Name implements Strategy.
func (Sequential) Name() string { return "sequential-reload" }

// Transfer implements Strategy.
func (s Sequential) Transfer(ch *channel.Channel, body []byte, sp int) (Outcome, error) {
	attempts := s.MaxAttempts
	if attempts == 0 {
		attempts = 50
	}
	m := erasure.PacketsFor(len(body), sp)
	frame := packet.FrameSize(sp)
	start := ch.Now()
	out := Outcome{}
	for a := 0; a < attempts; a++ {
		clean := true
		for i := 0; i < m; i++ {
			d := ch.Send(frame)
			out.PacketsSent++
			if d.Outcome != channel.Intact {
				clean = false
				// The receiver cannot detect success early; the whole
				// document still goes over the air before the reload
				// (browsers discover corruption at render time).
			}
		}
		if clean {
			out.Elapsed = ch.Now() - start
			out.Completed = true
			return out, nil
		}
	}
	out.Elapsed = ch.Now() - start
	return out, nil
}

// ARQ is selective-repeat automatic repeat request: after each round the
// receiver NAKs the corrupted packets (costing one round-trip) and only
// those are retransmitted.
type ARQ struct {
	// RTT is the control round-trip cost charged per retransmission
	// round; zero means 300 ms, a typical wide-area wireless RTT of the
	// period.
	RTT time.Duration
	// MaxRounds caps retransmission rounds; zero means 100.
	MaxRounds int
}

var _ Strategy = ARQ{}

// Name implements Strategy.
func (ARQ) Name() string { return "selective-repeat-arq" }

// Transfer implements Strategy.
func (a ARQ) Transfer(ch *channel.Channel, body []byte, sp int) (Outcome, error) {
	rtt := a.RTT
	if rtt == 0 {
		rtt = 300 * time.Millisecond
	}
	maxRounds := a.MaxRounds
	if maxRounds == 0 {
		maxRounds = 100
	}
	m := erasure.PacketsFor(len(body), sp)
	frame := packet.FrameSize(sp)
	start := ch.Now()
	out := Outcome{}
	missing := m
	for round := 0; round < maxRounds && missing > 0; round++ {
		if round > 0 {
			ch.Advance(rtt) // NAK round trip
		}
		still := 0
		for i := 0; i < missing; i++ {
			d := ch.Send(frame)
			out.PacketsSent++
			if d.Outcome != channel.Intact {
				still++
			}
		}
		missing = still
	}
	out.Elapsed = ch.Now() - start
	out.Completed = missing == 0
	return out, nil
}

// Compressed deflates the body and delegates to an inner strategy —
// protocol reduction in the Web Express tradition. It composes: wrap
// Sequential for "compression only", or ARQ for "compression + ARQ".
type Compressed struct {
	// Inner is the transfer scheme for the compressed bytes; nil means
	// Sequential{}.
	Inner Strategy
	// Level is the flate level; zero means flate.DefaultCompression.
	Level int
}

var _ Strategy = Compressed{}

// Name implements Strategy.
func (c Compressed) Name() string {
	return "deflate+" + c.inner().Name()
}

func (c Compressed) inner() Strategy {
	if c.Inner == nil {
		return Sequential{}
	}
	return c.Inner
}

// Transfer implements Strategy.
func (c Compressed) Transfer(ch *channel.Channel, body []byte, sp int) (Outcome, error) {
	level := c.Level
	if level == 0 {
		level = flate.DefaultCompression
	}
	var buf bytes.Buffer
	zw, err := flate.NewWriter(&buf, level)
	if err != nil {
		return Outcome{}, fmt.Errorf("baseline: %w", err)
	}
	if _, err := zw.Write(body); err != nil {
		return Outcome{}, fmt.Errorf("baseline: %w", err)
	}
	if err := zw.Close(); err != nil {
		return Outcome{}, fmt.Errorf("baseline: %w", err)
	}
	return c.inner().Transfer(ch, buf.Bytes(), sp)
}

// FTMRT adapts fault-tolerant multi-resolution transmission to the
// Strategy interface for apples-to-apples comparison: document LOD,
// Caching, early termination on reconstructibility.
type FTMRT struct {
	// Gamma is the redundancy ratio; zero means core.DefaultGamma.
	Gamma float64
	// MaxRounds caps retransmission rounds; zero means 50.
	MaxRounds int
}

var _ Strategy = FTMRT{}

// Name implements Strategy.
func (f FTMRT) Name() string { return "ft-mrt" }

// Transfer implements Strategy. The client is the transport's fetch
// machine; the server skips the rows the request says are held.
func (f FTMRT) Transfer(ch *channel.Channel, body []byte, sp int) (Outcome, error) {
	maxRounds := f.MaxRounds
	if maxRounds == 0 {
		maxRounds = 50
	}
	plan, err := planForBody(body, sp, f.Gamma)
	if err != nil {
		return Outcome{}, err
	}
	start := ch.Now()
	opts := transport.FetchOptions{Caching: true, MaxRounds: maxRounds}
	res, err := transport.SimulateFetch(ch, plan.Layout(), opts, nil, transport.UnheldRows(plan.N(), 0), plan.CookedPayload)
	out := Outcome{Elapsed: ch.Now() - start, PacketsSent: res.PacketsReceived, Completed: err == nil}
	if err != nil && !errors.Is(err, transport.ErrRoundsExhausted) {
		return Outcome{}, err
	}
	return out, nil
}

// CompressedFTMRT deflates the body and transfers it with FT-MRT —
// stacking both mechanisms.
type CompressedFTMRT struct {
	// Gamma is the redundancy ratio; zero means core.DefaultGamma.
	Gamma float64
}

var _ Strategy = CompressedFTMRT{}

// Name implements Strategy.
func (CompressedFTMRT) Name() string { return "deflate+ft-mrt" }

// Transfer implements Strategy.
func (c CompressedFTMRT) Transfer(ch *channel.Channel, body []byte, sp int) (Outcome, error) {
	var buf bytes.Buffer
	zw, err := flate.NewWriter(&buf, flate.DefaultCompression)
	if err != nil {
		return Outcome{}, fmt.Errorf("baseline: %w", err)
	}
	if _, err := zw.Write(body); err != nil {
		return Outcome{}, fmt.Errorf("baseline: %w", err)
	}
	if err := zw.Close(); err != nil {
		return Outcome{}, fmt.Errorf("baseline: %w", err)
	}
	return FTMRT{Gamma: c.Gamma}.Transfer(ch, buf.Bytes(), sp)
}

// planForBody wraps an opaque byte body as a single-paragraph document
// plan at the document LOD.
func planForBody(body []byte, sp int, gamma float64) (*core.Plan, error) {
	if len(body) == 0 {
		return nil, fmt.Errorf("baseline: empty body")
	}
	doc, err := opaqueDocument(body)
	if err != nil {
		return nil, err
	}
	return core.NewPlanWithScores(doc, map[int]float64{}, core.Config{
		PacketSize: sp,
		Gamma:      gamma,
	})
}
