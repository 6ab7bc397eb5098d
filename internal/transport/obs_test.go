package transport

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"mobweb/internal/channel"
	"mobweb/internal/core"
	"mobweb/internal/corpus"
	"mobweb/internal/obs"
	"mobweb/internal/search"
	"mobweb/internal/textproc"
)

// TestFetchObservability drives one lossy adaptive fetch with the full
// observability stack attached — shared registry on both ends, a fetch
// trace — and checks that the counters, gauges, probes, timeline and
// fetch log all agree with the FetchResult.
func TestFetchObservability(t *testing.T) {
	reg := obs.NewRegistry()
	model, err := channel.NewBernoulli(0.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	client := startServer(t, ServerOptions{InjectorFactory: oneChannel(NewModelInjector(model)), Metrics: reg})
	client.Metrics = reg
	tr := obs.NewTrace(0)
	res, err := client.Fetch(FetchOptions{
		Doc:        corpus.DraftName,
		Caching:    true,
		MaxRounds:  20,
		AdaptGamma: true,
		Trace:      tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Body == nil {
		t.Fatal("fetch incomplete")
	}
	if res.Trace != tr {
		t.Error("FetchResult.Trace does not echo FetchOptions.Trace")
	}

	snap := reg.Snapshot()
	wantCounters := map[string]int64{
		"fetch.count":             1,
		"fetch.rounds":            int64(res.Rounds),
		"fetch.packets_received":  int64(res.PacketsReceived),
		"fetch.packets_corrupted": int64(res.PacketsCorrupted),
		"serve.requests_fetch":    int64(res.Rounds),
	}
	for name, want := range wantCounters {
		if got := snap.Counters[name]; got != want {
			t.Errorf("counter %s = %d, want %d", name, got, want)
		}
	}
	if out := snap.Counters["serve.frames_out"]; out < int64(res.PacketsReceived) {
		t.Errorf("serve.frames_out = %d, below client's %d received", out, res.PacketsReceived)
	}
	if snap.Counters["serve.conns_accepted"] < 1 {
		t.Error("no accepted connections counted")
	}
	if res.PacketsCorrupted > 0 {
		if a := snap.Values["fetch.alpha"]; a <= 0 || a >= 1 {
			t.Errorf("fetch.alpha gauge = %v, want a probability in (0, 1)", a)
		}
	}
	if g := snap.Values["fetch.gamma"]; g < 1 {
		t.Errorf("fetch.gamma gauge = %v, want >= 1 after adaptation", g)
	}
	for _, probe := range []string{"planner", "erasure", "core"} {
		if _, ok := snap.Probes[probe]; !ok {
			t.Errorf("probe %q missing from snapshot", probe)
		}
	}

	// The timeline must account for every frame and every round.
	events := tr.Events()
	if len(events) == 0 {
		t.Fatal("empty timeline")
	}
	counts := map[string]int{}
	for _, ev := range events {
		counts[ev.Type]++
	}
	if counts[obs.EventRoundStart] != res.Rounds || counts[obs.EventRoundEnd] != res.Rounds {
		t.Errorf("timeline has %d/%d round starts/ends, want %d of each",
			counts[obs.EventRoundStart], counts[obs.EventRoundEnd], res.Rounds)
	}
	if got := counts[obs.EventPacket]; got != res.PacketsReceived-res.PacketsCorrupted {
		t.Errorf("timeline has %d packet events, want %d", got, res.PacketsReceived-res.PacketsCorrupted)
	}
	if got := counts[obs.EventCorrupt]; got != res.PacketsCorrupted {
		t.Errorf("timeline has %d corrupt events, want %d", got, res.PacketsCorrupted)
	}
	if counts[obs.EventDecode] == 0 {
		t.Error("no decode events despite full reconstruction")
	}
	if last := events[len(events)-1]; last.Type != obs.EventDone {
		t.Errorf("timeline ends with %q, want %q", last.Type, obs.EventDone)
	}

	// Both sides logged into the shared fetch log.
	recs := reg.FetchLog().Recent(0)
	var sawClient, sawServer bool
	for _, rec := range recs {
		switch rec.Origin {
		case "client":
			sawClient = true
			if rec.Doc != corpus.DraftName || rec.Rounds != res.Rounds || rec.Err != "" {
				t.Errorf("client record %+v disagrees with result", rec)
			}
			if len(rec.Events) != len(events) {
				t.Errorf("client record carries %d events, trace has %d", len(rec.Events), len(events))
			}
		case "server":
			sawServer = true
			if rec.Sent == 0 {
				t.Errorf("server record sent no frames: %+v", rec)
			}
		}
	}
	if !sawClient || !sawServer {
		t.Errorf("fetch log missing records (client=%v server=%v)", sawClient, sawServer)
	}
}

// TestFetchLogRecordsFailure pins the error-class accounting: a fetch that
// dies with reconnection disabled must land in the log with its class.
func TestFetchLogRecordsFailure(t *testing.T) {
	reg := obs.NewRegistry()
	client, _ := startChaosServer(t, ServerOptions{Metrics: reg}, chaosAcceptancePolicy())
	client.Metrics = reg
	client.Retry = NoRetry
	if _, err := client.Fetch(FetchOptions{Doc: corpus.DraftName, Caching: true, MaxRounds: 20}); err == nil {
		t.Fatal("fetch completed with reconnection disabled under connection kills")
	}
	if got := reg.Snapshot().Counters["fetch.errors"]; got != 1 {
		t.Errorf("fetch.errors = %d, want 1", got)
	}
	var rec *obs.FetchRecord
	for _, r := range reg.FetchLog().Recent(0) {
		if r.Origin == "client" {
			rec = &r
			break
		}
	}
	if rec == nil {
		t.Fatal("failed fetch missing from fetch log")
	}
	if rec.Err != "disconnected" {
		t.Errorf("recorded error class %q, want %q", rec.Err, "disconnected")
	}
}

// TestChaosCancelRacesRedial is the cancellation/redial race drill: a
// context cancellation fired from another goroutine lands before, during
// and after the client's post-kill redial, while a scraper goroutine
// concurrently snapshots the shared registry, trace and fetch log. The
// assertions are loose by design — the test's job is to give the race
// detector interleavings to chew on (CI runs every TestChaos* under
// -race in the chaos soak).
func TestChaosCancelRacesRedial(t *testing.T) {
	for _, delay := range []time.Duration{
		2 * time.Millisecond, 10 * time.Millisecond, 35 * time.Millisecond, 120 * time.Millisecond,
	} {
		reg := obs.NewRegistry()
		policy := ChaosPolicy{Seed: 9, KillAfterMin: 3000, KillAfterMax: 5000, MaxKills: 2}
		client, _ := startChaosServer(t, ServerOptions{Metrics: reg}, policy)
		client.Metrics = reg
		tr := obs.NewTrace(0)

		stop := make(chan struct{})
		var scraper sync.WaitGroup
		scraper.Add(1)
		go func() {
			defer scraper.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				reg.Snapshot()
				tr.Events()
				reg.FetchLog().Recent(0)
				time.Sleep(200 * time.Microsecond)
			}
		}()

		ctx, cancel := context.WithCancel(context.Background())
		cancelDone := make(chan struct{})
		go func() {
			defer close(cancelDone)
			time.Sleep(delay)
			cancel()
		}()

		res, err := client.FetchContext(ctx, FetchOptions{
			Doc: corpus.DraftName, Caching: true, MaxRounds: 20, Trace: tr,
		})
		<-cancelDone
		close(stop)
		scraper.Wait()

		if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, ErrDisconnected) {
			t.Errorf("delay %v: unexpected terminal error %v", delay, err)
		}
		if res == nil {
			t.Fatalf("delay %v: no partial result alongside err=%v", delay, err)
		}
		if err != nil {
			if last := mustLastEvent(t, tr); last.Type != obs.EventError {
				t.Errorf("delay %v: failed fetch timeline ends with %q, want %q", delay, last.Type, obs.EventError)
			}
		}
	}
}

func mustLastEvent(t *testing.T, tr *obs.Trace) obs.Event {
	t.Helper()
	events := tr.Events()
	if len(events) == 0 {
		t.Fatal("empty timeline")
	}
	return events[len(events)-1]
}

// benchReceiverAndFrame builds a receiver plus one frame already held by
// it, so the benchmark loop exercises the real per-frame hot path (CRC
// parse + duplicate detection) without allocating per iteration.
func benchReceiverAndFrame(b *testing.B) (*core.Receiver, []byte) {
	b.Helper()
	engine := corpusEngineB(b)
	sc, ok := engine.SC(corpus.DraftName)
	if !ok {
		b.Fatal("draft document missing")
	}
	plan, err := core.NewPlan(sc, nil, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	rcv, err := core.NewReceiver(plan)
	if err != nil {
		b.Fatal(err)
	}
	frame, err := plan.Frame(0)
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := rcv.AddFrame(frame); err != nil {
		b.Fatal(err)
	}
	return rcv, frame
}

func corpusEngineB(b *testing.B) *search.Engine {
	b.Helper()
	engine := search.NewEngine(textproc.Options{})
	docs, err := corpus.LoadAll()
	if err != nil {
		b.Fatal(err)
	}
	for _, d := range docs {
		if err := engine.Add(d); err != nil {
			b.Fatal(err)
		}
	}
	return engine
}

// BenchmarkPacketPathBaseline is the un-instrumented reference for the
// per-frame receive path.
func BenchmarkPacketPathBaseline(b *testing.B) {
	rcv, frame := benchReceiverAndFrame(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := rcv.AddFrame(frame); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDisabledMetrics and benchDisabledTrace live at package level so
// the compiler treats them as genuine loads (a local zero value could be
// constant-folded, erasing the disabled-path cost being measured).
var (
	benchDisabledMetrics clientMetrics // all-nil: what a metrics-free client carries
	benchDisabledTrace   *obs.Trace
)

// BenchmarkMetricsDisabled is the same path plus every per-frame
// instrumentation call consumeStream makes, with observability off (nil
// registry, nil trace). The acceptance bar: within a few percent of the
// baseline and zero allocations per frame.
func BenchmarkMetricsDisabled(b *testing.B) {
	rcv, frame := benchReceiverAndFrame(b)
	cm := &benchDisabledMetrics
	tr := benchDisabledTrace
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm.packetsIn.Inc()
		seq, intact, err := rcv.AddFrame(frame)
		if err != nil {
			b.Fatal(err)
		}
		if !intact {
			cm.packetsCorrupt.Inc()
		}
		if tr != nil {
			if intact {
				tr.Record(obs.Event{Type: obs.EventPacket, Seq: seq})
			} else {
				tr.Record(obs.Event{Type: obs.EventCorrupt, Seq: seq})
			}
		}
	}
}
