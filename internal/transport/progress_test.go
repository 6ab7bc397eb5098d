package transport

import (
	"bytes"
	"sync"
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

// lateSourceInjector corrupts frames by a channel model and holds back
// source 1 of every generation, putting it on the air in place of the
// first frame after M more of its generation's went by. The generation
// has usually decoded by then, so the source arrives late, for a slot the
// solve already wrote and a text may already show.
type lateSourceInjector struct {
	layout core.Layout
	inner  FaultInjector

	mu       sync.Mutex
	held     [][]byte // by generation
	since    []int    // frames of the generation since its hold
	released int
}

func newLateSourceInjector(layout core.Layout, inner FaultInjector) *lateSourceInjector {
	n := len(layout.Shapes)
	return &lateSourceInjector{layout: layout, inner: inner, held: make([][]byte, n), since: make([]int, n)}
}

// Inject implements FaultInjector.
func (l *lateSourceInjector) Inject(frame []byte, seq int) ([]byte, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	g, local, _ := l.layout.SplitSeq(seq)
	if local == 1 && l.since[g] == 0 && l.held[g] == nil {
		l.held[g] = append([]byte(nil), frame...)
		return nil, false
	}
	if l.held[g] != nil {
		l.since[g]++
	}
	for h, late := range l.held {
		if late != nil && l.since[h] >= l.layout.Shapes[h].M {
			l.held[h] = nil
			l.released++
			return late, true // in place of this frame, which is lost
		}
	}
	return l.inner.Inject(frame, seq)
}

// TestProgressTextsReadConcurrently: OnProgress hands every unit text to
// a reader goroutine, which keeps reading them all while the lossy fetch
// goes on and sources of decoded generations arrive late. A text is a
// view of the receiver's body buffer, whose slots are written once, so
// the race detector reports nothing, and every text still matches the
// body afterwards.
func TestProgressTextsReadConcurrently(t *testing.T) {
	for _, codec := range []erasure.CodecID{erasure.CodecVandermonde, erasure.CodecFountain} {
		t.Run(codec.String(), func(t *testing.T) {
			defaults := core.Config{MaxGeneration: 8}
			opts := FetchOptions{Doc: corpus.DraftName, LOD: document.LODParagraph, Codec: codec, Caching: true, MaxRounds: 20}
			srv, err := NewServer(corpusEngine(t), ServerOptions{Defaults: defaults})
			if err != nil {
				t.Fatal(err)
			}
			layout, err := srv.Layout(opts)
			srv.Close()
			if err != nil {
				t.Fatal(err)
			}
			model, err := channel.NewBernoulli(0.1, 3)
			if err != nil {
				t.Fatal(err)
			}
			inj := newLateSourceInjector(layout, NewModelInjector(model))
			client := startServer(t, ServerOptions{Defaults: defaults, InjectorFactory: oneChannel(inj)})

			// Room for every unit the draft has, so OnProgress never waits
			// on the reader.
			texts := make(chan string, 1024)
			readerDone := make(chan int)
			go func() {
				// The reader copies each text out, as a renderer drawing it
				// would: the race detector sees a copy's reads, not those
				// of string indexing, which it takes for immutable data.
				var kept []string
				var screen []byte
				for open := true; open; {
					select {
					case s, ok := <-texts:
						open = ok
						kept = append(kept, s)
					default:
					}
					for _, s := range kept {
						screen = append(screen[:0], s...)
					}
				}
				readerDone <- len(screen)
			}()
			var handed []core.RenderedUnit
			opts.OnProgress = func(p Progress) {
				for _, u := range p.NewUnits {
					handed = append(handed, u)
					texts <- u.Text
				}
			}
			res, err := client.Fetch(opts)
			close(texts)
			<-readerDone
			if err != nil {
				t.Fatal(err)
			}
			if res.Body == nil {
				t.Fatal("fetch incomplete")
			}
			inj.mu.Lock()
			released := inj.released
			inj.mu.Unlock()
			if released == 0 {
				t.Fatal("no source arrived late; the test exercises nothing")
			}
			for _, u := range handed {
				seg := u.Segment
				if want := res.Body[seg.OrigOff : seg.OrigOff+seg.Length]; !bytes.Equal([]byte(u.Text), want) {
					t.Errorf("unit %s: the text handed out no longer matches the body", seg.Label)
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
