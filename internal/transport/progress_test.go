package transport

import (
	"testing"

	"mobweb/internal/channel"
	"mobweb/internal/core"
	"mobweb/internal/corpus"
	"mobweb/internal/document"
	"mobweb/internal/erasure"
	"mobweb/internal/obs"
)

// TestNewUnitsExactlyOncePerFetch: a unit reaches OnProgress once per
// fetch, in transmission order within a callback, however often the
// receiver behind the fetch is reset, rebased or carried over a redial —
// and together the callbacks deliver exactly what the result renders.
func TestNewUnitsExactlyOncePerFetch(t *testing.T) {
	bernoulli := func(alpha float64, seed int64) ServerOptions {
		model, err := channel.NewBernoulli(alpha, seed)
		if err != nil {
			t.Fatal(err)
		}
		return ServerOptions{InjectorFactory: oneChannel(NewModelInjector(model))}
	}
	for _, tc := range []struct {
		name   string
		client func(t *testing.T) *Client
		opts   FetchOptions
		// happened checks that the fetch went through the event the case
		// is about; a seed that no longer produces it tests nothing.
		happened func(res *FetchResult, tr *obs.Trace) bool
	}{
		{
			name:   "NoCaching second round resets the receiver",
			client: func(t *testing.T) *Client { return startServer(t, bernoulli(0.4, 1)) },
			opts:   FetchOptions{Caching: false, MaxRounds: 60},
			happened: func(res *FetchResult, _ *obs.Trace) bool {
				return res.Rounds >= 2
			},
		},
		{
			name:   "adaptive γ rebases the receiver",
			client: func(t *testing.T) *Client { return startServer(t, bernoulli(0.3, 12)) },
			opts:   FetchOptions{Gamma: 1.0, AdaptGamma: true, Caching: true, MaxRounds: 30},
			happened: func(_ *FetchResult, tr *obs.Trace) bool {
				for _, e := range tr.Events() {
					if e.Type == obs.EventRebase {
						return true
					}
				}
				return false
			},
		},
		{
			name: "chaos kills force reconnects",
			client: func(t *testing.T) *Client {
				c, _ := startChaosServer(t, ServerOptions{}, chaosAcceptancePolicy())
				return c
			},
			opts: FetchOptions{Caching: true, MaxRounds: 20},
			happened: func(res *FetchResult, _ *obs.Trace) bool {
				return res.Reconnects >= 1
			},
		},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			delivered := make(map[int]core.RenderedUnit) // by permuted offset
			tr := obs.NewTrace(0)
			opts := tc.opts
			opts.Doc = corpus.DraftName
			opts.LOD = document.LODParagraph
			opts.Trace = tr
			opts.OnProgress = func(p Progress) {
				if !p.Intact && len(p.NewUnits) > 0 {
					t.Errorf("corrupt frame %d surfaced %d units", p.Seq, len(p.NewUnits))
				}
				last := -1
				for _, u := range p.NewUnits {
					off := u.Segment.PermutedOff
					if _, dup := delivered[off]; dup {
						t.Errorf("unit %s delivered twice", u.Segment.Label)
					}
					if off <= last {
						t.Errorf("unit %s out of transmission order within a callback", u.Segment.Label)
					}
					last = off
					delivered[off] = u
				}
			}
			res, err := tc.client(t).Fetch(opts)
			if err != nil {
				t.Fatal(err)
			}
			if !tc.happened(res, tr) {
				t.Fatalf("the fetch finished without the event under test (rounds %d, reconnects %d)", res.Rounds, res.Reconnects)
			}
			if res.Body == nil {
				t.Fatal("fetch incomplete")
			}
			if len(delivered) != len(res.Rendered) {
				t.Fatalf("callbacks delivered %d units, the result renders %d", len(delivered), len(res.Rendered))
			}
			for _, u := range res.Rendered {
				if got, ok := delivered[u.Segment.PermutedOff]; !ok || got != u {
					t.Errorf("unit %s: delivered %v, rendered differently", u.Segment.Label, ok)
				}
			}
		})
	}
}

// TestProgressCarriesResponseHeader: who serves the stream, at what tier
// and under which codec is on every Progress, the first included — a
// renderer that must commit to them before its first byte can.
func TestProgressCarriesResponseHeader(t *testing.T) {
	client := startServer(t, ServerOptions{
		Name:       "r1",
		Capability: NewCapabilityState(CapFetchDegraded),
	})
	frames := 0
	res, err := client.Fetch(FetchOptions{Doc: corpus.DraftName, Codec: erasure.CodecFountain, Caching: true, OnProgress: func(p Progress) {
		frames++
		if p.Replica != "r1" || p.Capability != CapFetchDegraded.String() || p.Codec != "fountain" {
			t.Errorf("frame %d: replica %q, capability %q, codec %q", p.Seq, p.Replica, p.Capability, p.Codec)
		}
	}})
	if err != nil || frames == 0 {
		t.Fatalf("%d frames, %v", frames, err)
	}
	if res.Replica != "r1" || res.Capability != CapFetchDegraded.String() || res.Codec != "fountain" {
		t.Errorf("result: replica %q, capability %q, codec %q", res.Replica, res.Capability, res.Codec)
	}
}

// TestRefusalClass: a request the tier answers and turns down is its own
// error class, apart from a failed transport.
func TestRefusalClass(t *testing.T) {
	client := startServer(t, ServerOptions{})
	_, err := client.Fetch(FetchOptions{Doc: "missing.xml"})
	if got := ErrorClass(err); got != "refused" {
		t.Errorf("ErrorClass(%v) = %q, want refused", err, got)
	}
	if want := `transport: fetch: unknown document "missing.xml"`; err == nil || err.Error() != want {
		t.Errorf("error %v, want %q", err, want)
	}
}
