package shard

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"mobweb/internal/channel"
	"mobweb/internal/core"
	"mobweb/internal/corpus"
	"mobweb/internal/erasure"
	"mobweb/internal/obs"
	"mobweb/internal/store"
	"mobweb/internal/transport"
)

// frontRecords returns the front's fetch-log records for doc, most
// recent first. The front logs a fetch after it has flushed the
// end-of-stream marker, so the client can be back from Fetch a moment
// before the record exists: wait until every fetch the front accepted
// has logged.
func frontRecords(t *testing.T, fl *testFleet, doc string) []obs.FetchRecord {
	t.Helper()
	log := fl.frontReg.FetchLog()
	waitFor(t, 2*time.Second, func() bool { return log.Total() >= fl.counter("front.fetches") },
		"front never logged its last fetch")
	var recs []obs.FetchRecord
	for _, rec := range log.Recent(0) {
		if rec.Doc == doc {
			recs = append(recs, rec)
		}
	}
	return recs
}

// frontRecord returns the front's most recent fetch-log record for doc.
func frontRecord(t *testing.T, fl *testFleet, doc string) obs.FetchRecord {
	t.Helper()
	recs := frontRecords(t, fl, doc)
	if len(recs) == 0 {
		t.Fatalf("no front fetch-log record for %s", doc)
	}
	return recs[0]
}

// rerouted returns the front's records for doc that a replica death
// ended, most recent first.
func rerouted(t *testing.T, fl *testFleet, doc string) []obs.FetchRecord {
	t.Helper()
	var out []obs.FetchRecord
	for _, rec := range frontRecords(t, fl, doc) {
		if rec.Err == "rerouted" {
			out = append(out, rec)
		}
	}
	return out
}

// replicaNamed returns the fleet's replica called name, or nil.
func (fl *testFleet) replicaNamed(name string) *testReplica {
	for _, r := range fl.replicas {
		if r.name == name {
			return r
		}
	}
	return nil
}

// serverHaves returns the Have count of every stream replica r served
// for doc.
func serverHaves(r *testReplica, doc string) []int {
	var out []int
	for _, rec := range r.reg.FetchLog().Recent(0) {
		if rec.Doc == doc && rec.Origin == "server" {
			out = append(out, rec.Have)
		}
	}
	return out
}

func TestFetchThroughFrontCleanFleet(t *testing.T) {
	fl := startFleet(t, 3, transport.ServerOptions{}, Options{})
	client := fl.client(t)
	doc := corpus.DraftName
	res, err := client.Fetch(transport.FetchOptions{Doc: doc, Caching: true})
	if err != nil {
		t.Fatal(err)
	}
	want := singleServerBody(t, fl.replicas[0], doc)
	if !bytes.Equal(res.Body, want) {
		t.Error("front-proxied body differs from single-server fetch")
	}
	rec := frontRecord(t, fl, doc)
	home := fl.replicas[fl.home(doc)].name
	if rec.Replica != home {
		t.Errorf("served by %q, want home replica %q", rec.Replica, home)
	}
	if rec.Err != "" || fl.counter("front.reroutes") != 0 {
		t.Errorf("clean fetch logged class %q and %d reroutes", rec.Err, fl.counter("front.reroutes"))
	}
	if got := fl.counter("front.fetches"); got != 1 {
		t.Errorf("front.fetches = %d, want 1", got)
	}
}

func TestSearchThroughFront(t *testing.T) {
	fl := startFleet(t, 2, transport.ServerOptions{}, Options{})
	client := fl.client(t)
	hits, err := client.Search("mobile web browsing", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 || hits[0].Name != corpus.DraftName {
		t.Fatalf("search through front returned %v", hits)
	}
}

// killAt arranges for replica to be killed once progress reaches the
// given frame count.
func killAt(frames int, replica *testReplica, progress *int, killed *sync.WaitGroup) func(transport.Progress) {
	var once sync.Once
	return func(transport.Progress) {
		*progress++
		if *progress >= frames {
			once.Do(func() {
				killed.Add(1)
				go func() {
					defer killed.Done()
					replica.Kill()
				}()
			})
		}
	}
}

func TestFetchSurvivesReplicaKillMidStream(t *testing.T) {
	fl := startFleet(t, 3, transport.ServerOptions{PacketDelay: 2 * time.Millisecond}, Options{
		Retry: transport.RetryPolicy{Seed: 7, BaseDelay: 10 * time.Millisecond},
	})
	doc := corpus.DraftName
	want := singleServerBody(t, fl.replicas[(fl.home(doc)+1)%3], doc)

	client := fl.client(t)
	var progress int
	var killed sync.WaitGroup
	res, err := client.Fetch(transport.FetchOptions{
		Doc:        doc,
		Caching:    true,
		OnProgress: killAt(5, fl.replicas[fl.home(doc)], &progress, &killed),
	})
	killed.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Body, want) {
		t.Fatal("re-routed fetch body differs from single-server fetch")
	}
	// The front ends the client's stream when its replica dies; the
	// client redials once and resumes in a second round.
	if res.Reconnects != 1 || res.Rounds != 2 {
		t.Errorf("fetch took %d reconnects and %d rounds, want 1 and 2", res.Reconnects, res.Rounds)
	}
	if got := fl.counter("front.reroutes"); got != 1 {
		t.Errorf("front.reroutes = %d, want 1", got)
	}
	killedName := fl.replicas[fl.home(doc)].name
	dead := rerouted(t, fl, doc)
	if len(dead) != 1 || dead[0].Sent == 0 || dead[0].Replica != killedName {
		t.Errorf("rerouted front records %+v, want one with frames sent, naming %q", dead, killedName)
	}
	rec := frontRecord(t, fl, doc)
	if rec.Err != "" || rec.Replica == killedName {
		t.Errorf("resume's front record %+v, want a clean stream from a survivor", rec)
	}
	// The survivor saw the client's own resume: a request with a Have list.
	resumed := false
	if survivor := fl.replicaNamed(rec.Replica); survivor != nil {
		for _, have := range serverHaves(survivor, doc) {
			resumed = resumed || have > 0
		}
	}
	if !resumed {
		t.Errorf("survivor %q served no request with a Have list", rec.Replica)
	}
	// Resume is strictly cheaper than starting over: the second replica
	// skipped the frames already relayed, so the client saw fewer
	// transmissions than two from-scratch streams would cost.
	if layoutN := res.HeldPackets; res.PacketsReceived >= layoutN+progress {
		t.Errorf("received %d packets with %d relayed before the kill; resume not cheaper than restart", res.PacketsReceived, progress)
	}
	// The price of the death in control bytes: the resume's header and
	// its request, Have list and all.
	clean, err := fl.client(t).Fetch(transport.FetchOptions{Doc: doc, Caching: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("replica death cost %d header bytes and %d uplink bytes over a clean fetch (%d and %d)",
		res.HeaderBytes-clean.HeaderBytes, res.UplinkBytes-clean.UplinkBytes, clean.HeaderBytes, clean.UplinkBytes)
}

// TestChaosTwoReplicaKillsOneFetch is the -race soak: two of three
// replicas die mid-stream within one fetch, and the client's two resumes
// through the front complete it byte-identically on the third. The Chaos
// name routes it into the CI chaos-soak step.
func TestChaosTwoReplicaKillsOneFetch(t *testing.T) {
	fl := startFleet(t, 3, transport.ServerOptions{PacketDelay: 2 * time.Millisecond}, Options{
		Retry: transport.RetryPolicy{Seed: 11, BaseDelay: 10 * time.Millisecond},
	})
	doc := corpus.DraftName
	order := fl.ring.Successors(doc, nil)
	want := singleServerBody(t, fl.replicas[order[2]], doc)

	client := fl.client(t)
	var progress int
	var killed sync.WaitGroup
	first := killAt(5, fl.replicas[order[0]], &progress, &killed)
	var once sync.Once
	res, err := client.Fetch(transport.FetchOptions{
		Doc:     doc,
		Caching: true,
		OnProgress: func(p transport.Progress) {
			first(p) // increments progress
			if progress >= 15 {
				once.Do(func() {
					killed.Add(1)
					go func() {
						defer killed.Done()
						fl.replicas[order[1]].Kill()
					}()
				})
			}
		},
	})
	killed.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Body, want) {
		t.Fatal("doubly re-routed fetch body differs from single-server fetch")
	}
	if res.Reconnects != 2 {
		t.Errorf("client redialed %d times, want once per replica death", res.Reconnects)
	}
	if dead := rerouted(t, fl, doc); len(dead) != 2 {
		t.Errorf("front logged %d rerouted records, want 2: %+v", len(dead), dead)
	}
	rec := frontRecord(t, fl, doc)
	if rec.Replica != fl.replicas[order[2]].name {
		t.Errorf("final serving replica %q, want %q", rec.Replica, fl.replicas[order[2]].name)
	}
}

// TestNoCachingFetchRestartsAcrossReplicaKill: a fetch that keeps
// nothing between rounds loses its replica mid-stream. Its resume through
// the front carries an empty Have list, so the survivor streams the
// document from the start, and the fetch ends with its exact body.
func TestNoCachingFetchRestartsAcrossReplicaKill(t *testing.T) {
	fl := startFleet(t, 3, transport.ServerOptions{PacketDelay: 2 * time.Millisecond}, Options{
		Retry: transport.RetryPolicy{Seed: 9, BaseDelay: 10 * time.Millisecond},
	})
	doc := corpus.DraftName
	home := fl.home(doc)
	client := fl.client(t)
	var progress int
	var killed sync.WaitGroup
	res, err := client.Fetch(transport.FetchOptions{
		Doc:        doc,
		OnProgress: killAt(5, fl.replicas[home], &progress, &killed),
	})
	killed.Wait()
	if err != nil {
		t.Fatal(err)
	}
	rec := frontRecord(t, fl, doc)
	survivor := fl.replicaNamed(rec.Replica)
	if survivor == nil || survivor == fl.replicas[home] {
		t.Fatalf("resume served by %q, want a survivor of the killed %q", rec.Replica, fl.replicas[home].name)
	}
	if !bytes.Equal(res.Body, singleServerBody(t, survivor, doc)) {
		t.Fatal("fetch across the kill differs from the survivor's body")
	}
	if res.Reconnects != 1 {
		t.Errorf("reconnects = %d, want 1", res.Reconnects)
	}
	for _, have := range serverHaves(survivor, doc) {
		if have != 0 {
			t.Errorf("the survivor served a request with %d packets held; a NoCaching resume holds none", have)
		}
	}
	if dead := rerouted(t, fl, doc); len(dead) != 1 {
		t.Errorf("front logged %d rerouted records, want 1", len(dead))
	}
}

// TestChaosReplicaKillAndRestart drills the whole-replica restart: the
// home replica dies mid-fetch, gets marked down, comes back, passes the
// recovery hysteresis, and takes its keyspace back.
func TestChaosReplicaKillAndRestart(t *testing.T) {
	fl := startFleet(t, 2, transport.ServerOptions{PacketDelay: 2 * time.Millisecond}, Options{
		Retry:   transport.RetryPolicy{Seed: 3, BaseDelay: 10 * time.Millisecond},
		Monitor: MonitorOptions{Every: 20 * time.Millisecond, DownAfter: 2, UpAfter: 2},
	})
	doc := corpus.DraftName
	home := fl.home(doc)

	client := fl.client(t)
	var progress int
	var killed sync.WaitGroup
	res, err := client.Fetch(transport.FetchOptions{
		Doc:        doc,
		Caching:    true,
		OnProgress: killAt(5, fl.replicas[home], &progress, &killed),
	})
	killed.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Body == nil {
		t.Fatal("fetch across the kill did not reconstruct")
	}

	// The monitor (fed by probe failures and the proxy's failure report)
	// marks the dead replica down.
	waitFor(t, 5*time.Second, func() bool {
		st, _ := fl.front.Monitor().Status(home)
		return st == StateDown
	}, "home replica never marked down")

	fl.replicas[home].Restart()
	waitFor(t, 5*time.Second, func() bool {
		st, _ := fl.front.Monitor().Status(home)
		return st == StateHealthy
	}, "restarted replica never recovered")

	// The restarted replica owns its keyspace again.
	if _, err := client.Fetch(transport.FetchOptions{Doc: doc, Caching: true}); err != nil {
		t.Fatal(err)
	}
	rec := frontRecord(t, fl, doc)
	if rec.Replica != fl.replicas[home].name {
		t.Errorf("post-restart fetch served by %q, want recovered home %q", rec.Replica, fl.replicas[home].name)
	}
}

// TestChaosReplicaKillUnderConcurrentLoad is the fleet drill under load:
// eight clients fetch the corpus at once through a three-replica front,
// the first document's home replica dies mid-stream, and every fetch
// still completes byte-identically while the monitor marks the dead
// replica down.
func TestChaosReplicaKillUnderConcurrentLoad(t *testing.T) {
	fl := startFleet(t, 3, transport.ServerOptions{PacketDelay: 2 * time.Millisecond}, Options{
		Retry: transport.RetryPolicy{Seed: 5, BaseDelay: 10 * time.Millisecond},
	})
	docs := corpus.Names()
	home := fl.home(docs[0])
	want := make(map[string][]byte, len(docs))
	for _, doc := range docs {
		want[doc] = singleServerBody(t, fl.replicas[(home+1)%3], doc)
	}

	const clients = 8
	bodies := make([][]byte, clients)
	errs := make([]error, clients)
	var progress int
	var killed, wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		opts := transport.FetchOptions{Doc: docs[i%len(docs)], Caching: true}
		if i == 0 {
			opts.OnProgress = killAt(5, fl.replicas[home], &progress, &killed)
		}
		c := fl.client(t)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := c.Fetch(opts)
			if err == nil {
				bodies[i] = res.Body
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	killed.Wait()
	for i := 0; i < clients; i++ {
		doc := docs[i%len(docs)]
		if errs[i] != nil {
			t.Errorf("client %d (%s): %v", i, doc, errs[i])
		} else if !bytes.Equal(bodies[i], want[doc]) {
			t.Errorf("client %d (%s): body differs from the single-server fetch", i, doc)
		}
	}
	if progress < 5 {
		t.Fatalf("the killing fetch saw %d frames; the kill never fired", progress)
	}
	if got := fl.counter("front.reroutes"); got < 1 {
		t.Errorf("front.reroutes = %d, want >= 1", got)
	}
	waitFor(t, 5*time.Second, func() bool { return fl.counter("front.markdowns") >= 1 },
		"the killed home replica was never marked down")
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestFrontShedsOverBudget(t *testing.T) {
	fl := startFleet(t, 2, transport.ServerOptions{}, Options{
		Gate: GateOptions{MaxInFlight: 2, ResumeHeadroom: 1},
	})
	// Occupy the whole new-fetch share of the front's budget.
	release, _, ok := fl.front.Gate().Admit(false)
	if !ok {
		t.Fatal("could not occupy the gate")
	}
	defer release()

	client := fl.client(t)
	_, err := client.Fetch(transport.FetchOptions{Doc: corpus.DraftName})
	if !errors.Is(err, transport.ErrShed) {
		t.Fatalf("fetch over budget returned %v, want ErrShed", err)
	}
	var shed *transport.ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("shed error has no *ShedError in its chain: %v", err)
	}
	if shed.RetryAfter <= 0 {
		t.Error("shed response carried no retry-after hint")
	}
	if got := fl.counter("front.sheds"); got != 1 {
		t.Errorf("front.sheds = %d, want 1", got)
	}
	// Releasing the budget admits the retry.
	release()
	if _, err := client.Fetch(transport.FetchOptions{Doc: corpus.DraftName}); err != nil {
		t.Fatalf("fetch after release failed: %v", err)
	}
}

func TestReplicaShedRelayedThroughFront(t *testing.T) {
	gate := NewGate(GateOptions{MaxInFlight: 1, RetryAfter: 99 * time.Millisecond})
	fl := startFleet(t, 1, transport.ServerOptions{Admission: gate}, Options{})
	release, _, ok := gate.Admit(true)
	if !ok {
		t.Fatal("could not occupy the replica gate")
	}
	defer release()

	client := fl.client(t)
	_, err := client.Fetch(transport.FetchOptions{Doc: corpus.DraftName})
	if !errors.Is(err, transport.ErrShed) {
		t.Fatalf("fetch against a shedding replica returned %v, want ErrShed", err)
	}
	var shed *transport.ShedError
	if !errors.As(err, &shed) || shed.RetryAfter != 99*time.Millisecond {
		t.Fatalf("replica's retry-after hint lost through the front: %v", err)
	}
}

func TestFrontRoutesAroundDegradedReplica(t *testing.T) {
	fl := startFleet(t, 2, transport.ServerOptions{}, Options{})
	doc := corpus.DraftName
	home := fl.home(doc)
	fl.replicas[home].capability.Set(transport.CapSearchOnly)

	client := fl.client(t)
	res, err := client.Fetch(transport.FetchOptions{Doc: doc, Caching: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Body == nil {
		t.Fatal("fetch around a search-only home did not reconstruct")
	}
	rec := frontRecord(t, fl, doc)
	other := fl.replicas[1-home].name
	if rec.Replica != other {
		t.Errorf("served by %q, want the fully-capable replica %q", rec.Replica, other)
	}
	// The home refused exactly once, at the capability tier.
	snap := fl.replicas[home].reg.Snapshot()
	if got := snap.Counters["serve.degraded_refusals"]; got != 1 {
		t.Errorf("home serve.degraded_refusals = %d, want 1", got)
	}
}

func TestFrontAllReplicasFetchRefusedDegraded(t *testing.T) {
	fl := startFleet(t, 2, transport.ServerOptions{}, Options{})
	for _, r := range fl.replicas {
		r.capability.Set(transport.CapSearchOnly)
	}
	client := fl.client(t)
	_, err := client.Fetch(transport.FetchOptions{Doc: corpus.DraftName})
	if !errors.Is(err, transport.ErrDegraded) {
		t.Fatalf("fetch against a search-only fleet returned %v, want ErrDegraded", err)
	}
	// The fallback tree bottoms out at search, which still works.
	hits, serr := client.Search("mobile web browsing", 3)
	if serr != nil || len(hits) == 0 {
		t.Fatalf("search against a search-only fleet failed: %v (%d hits)", serr, len(hits))
	}
}

func TestPrefetchFallsBackToFullReplica(t *testing.T) {
	fl := startFleet(t, 2, transport.ServerOptions{}, Options{})
	doc := corpus.DraftName
	home := fl.home(doc)
	fl.replicas[home].capability.Set(transport.CapFetchDegraded)

	client := fl.client(t)
	res, err := client.Prefetch(transport.FetchOptions{Doc: doc}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Received == 0 {
		t.Fatal("prefetch received nothing despite a fully-capable replica on the ring")
	}
	rec := frontRecord(t, fl, doc)
	if rec.Replica != fl.replicas[1-home].name {
		t.Errorf("prefetch served by %q, want the CapFull replica %q", rec.Replica, fl.replicas[1-home].name)
	}
}

func TestDegradedGammaClampThroughFront(t *testing.T) {
	fl := startFleet(t, 1, transport.ServerOptions{}, Options{})
	fl.replicas[0].capability.Set(transport.CapFetchDegraded)
	client := fl.client(t)
	// Ask for far more redundancy than the degraded tier serves.
	res, err := client.Fetch(transport.FetchOptions{Doc: corpus.DraftName, Gamma: 2.0, Caching: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Body == nil {
		t.Fatal("degraded fetch did not reconstruct")
	}
	// The replica's own stream record shows the effective γ: clamped to
	// the degraded ceiling, not the 2.0 the client asked for.
	var rec obs.FetchRecord
	found := false
	for _, r := range fl.replicas[0].reg.FetchLog().Recent(0) {
		if r.Doc == corpus.DraftName && r.Origin == "server" {
			rec, found = r, true
			break
		}
	}
	if !found {
		t.Fatal("no server-side fetch record on the replica")
	}
	if rec.Gamma != 1.25 {
		t.Errorf("replica served γ = %v, want the degraded clamp 1.25", rec.Gamma)
	}
}

// TestRebaseAcrossReplicaSwitch: the serving replica dies mid-stream and
// its successor builds a *different* layout (different default γ —
// corpus drift). The front ends the client's stream; the client's own
// redial/resume path re-enters through the front, reaches the survivor,
// and Receiver.Rebase carries the held packets across the layout change
// — cheaper than starting over, byte-identical at the end.
func TestRebaseAcrossReplicaSwitch(t *testing.T) {
	a := startReplica(t, "a-replica", transport.ServerOptions{
		Defaults:    core.Config{Gamma: 1.5},
		PacketDelay: 2 * time.Millisecond,
	})
	b := startReplica(t, "b-replica", transport.ServerOptions{
		Defaults:    core.Config{Gamma: 2.0},
		PacketDelay: 2 * time.Millisecond,
	})
	fl := startFrontOver(t, []*testReplica{a, b}, Options{
		Retry: transport.RetryPolicy{Seed: 5, BaseDelay: 10 * time.Millisecond},
	})
	doc := corpus.DraftName
	home := fl.home(doc)
	survivor := fl.replicas[1-home]
	want := singleServerBody(t, survivor, doc)

	client := fl.client(t)
	tr := obs.NewTrace(0)
	var progress int
	var killed sync.WaitGroup
	res, err := client.Fetch(transport.FetchOptions{
		Doc:        doc,
		Caching:    true,
		Trace:      tr,
		OnProgress: killAt(5, fl.replicas[home], &progress, &killed),
	})
	killed.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Body, want) {
		t.Fatal("rebased fetch body differs from single-server fetch")
	}
	// The layout mismatch forced the client through its own redial —
	// and the resume round rebased the held packets instead of starting
	// over.
	if res.Reconnects < 1 {
		t.Errorf("reconnects = %d; the replica death should have cut the client loose", res.Reconnects)
	}
	var sawRedial, sawRebase bool
	for _, ev := range tr.Events() {
		switch ev.Type {
		case obs.EventRedial:
			sawRedial = true
		case obs.EventRebase:
			sawRebase = true
			if ev.N == 0 {
				t.Error("rebase carried zero packets across the replica switch")
			}
		}
	}
	if !sawRedial || !sawRebase {
		t.Fatalf("trace missing redial/rebase events (redial=%v rebase=%v)", sawRedial, sawRebase)
	}
}

// TestRerouteRefusesAnotherGenerationSplit: the survivor splits the
// document into generations differently while N and the body size agree,
// so only the shapes tell the two streams apart. The client's resume
// round, routed to the survivor, must tell them apart too, rather than
// decode the two streams' frames together into a wrong body with a nil
// error.
func TestRerouteRefusesAnotherGenerationSplit(t *testing.T) {
	a := startReplica(t, "a-replica", transport.ServerOptions{
		Defaults:    core.Config{Gamma: 1.5},
		PacketDelay: 2 * time.Millisecond,
	})
	b := startReplica(t, "b-replica", transport.ServerOptions{
		Defaults:    core.Config{Gamma: 1.5, MaxGeneration: 2},
		PacketDelay: 2 * time.Millisecond,
	})
	doc := corpus.DraftName
	layout := func(r *testReplica) core.Layout {
		w := dialRawWire(t, r.addr)
		w.send(transport.Request{Op: "fetch", Doc: doc})
		_, resp, err := w.line()
		w.conn.Close()
		if err != nil || !resp.OK || resp.Layout == nil {
			t.Fatalf("%s: fetch header: %+v, %v", r.name, resp, err)
		}
		return *resp.Layout
	}
	la, lb := layout(a), layout(b)
	if la.N() != lb.N() || la.BodySize != lb.BodySize || la.SameStream(lb) == nil {
		t.Fatalf("replica layouts must agree on N and body size but split differently: %v/%d vs %v/%d",
			la.Shapes, la.BodySize, lb.Shapes, lb.BodySize)
	}
	fl := startFrontOver(t, []*testReplica{a, b}, Options{
		Retry: transport.RetryPolicy{Seed: 5, BaseDelay: 10 * time.Millisecond},
	})
	home := fl.home(doc)
	want := singleServerBody(t, fl.replicas[1-home], doc)

	client := fl.client(t)
	var progress int
	var killed sync.WaitGroup
	res, err := client.Fetch(transport.FetchOptions{
		Doc:        doc,
		Caching:    true,
		OnProgress: killAt(5, fl.replicas[home], &progress, &killed),
	})
	killed.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Body, want) {
		t.Fatal("fetch across a generation-split change returned a wrong body")
	}
	if res.Reconnects < 1 {
		t.Errorf("reconnects = %d; the replica death should have cut the client loose", res.Reconnects)
	}
}

// TestChaosReplicaDriftMidStream: the two replicas differ by a one-word
// edit of the draft that keeps its length and units, and the home
// replica dies mid-stream. Only the layout's seed, the content digest,
// tells the two streams apart; the client's resume through the front
// must notice, and the fetch must end with the survivor's exact body,
// never the relayed prefix decoded into a wrong body with a nil error.
// The Chaos name routes it into the CI chaos-soak step.
func TestChaosReplicaDriftMidStream(t *testing.T) {
	for _, codec := range []erasure.CodecID{erasure.CodecVandermonde, erasure.CodecFountain} {
		t.Run(codec.String(), func(t *testing.T) {
			sopts := transport.ServerOptions{PacketDelay: 2 * time.Millisecond, DefaultCodec: codec}
			a := startReplica(t, "a-replica", sopts)
			b := startReplicaOver(t, "b-replica", sopts, editedEngine)
			fl := startFrontOver(t, []*testReplica{a, b}, Options{
				Retry: transport.RetryPolicy{Seed: 13, BaseDelay: 10 * time.Millisecond},
			})
			doc := corpus.DraftName
			home := fl.home(doc)
			want := singleServerBody(t, fl.replicas[1-home], doc)

			client := fl.client(t)
			var progress int
			var killed sync.WaitGroup
			res, err := client.Fetch(transport.FetchOptions{
				Doc:        doc,
				Caching:    true,
				OnProgress: killAt(5, fl.replicas[home], &progress, &killed),
			})
			killed.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(res.Body, want) {
				t.Fatal("fetch across a drifted replica returned a body that is not the survivor's document")
			}
			if res.Reconnects < 1 {
				t.Errorf("reconnects = %d; the replica death should have cut the client loose", res.Reconnects)
			}
		})
	}
}

// TestChaosStaleStoreThroughReroute: a client whose store holds packets
// of the original draft fetches it through a front whose replicas both
// hold the edited draft, and the home replica dies mid-stream. The
// request's Have list names the original's packets; the replica ignores
// it, and the client's resume through the front must not replay it
// either: every source packet of the edited body comes over the wire,
// and none of the original's counts as stored.
func TestChaosStaleStoreThroughReroute(t *testing.T) {
	doc := corpus.DraftName
	for _, codec := range []erasure.CodecID{erasure.CodecVandermonde, erasure.CodecFountain} {
		t.Run(codec.String(), func(t *testing.T) {
			opts := transport.FetchOptions{Doc: doc, Caching: true, Codec: codec}
			st, err := store.Open("", store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { st.Close() })
			orig := startReplica(t, "original", transport.ServerOptions{})
			pre, err := transport.Dial(orig.addr)
			if err != nil {
				t.Fatal(err)
			}
			pre.Store = st
			if _, err := pre.Prefetch(opts, 10); err != nil {
				t.Fatal(err)
			}
			pre.Close()

			sopts := transport.ServerOptions{PacketDelay: 2 * time.Millisecond}
			a := startReplicaOver(t, "a-replica", sopts, editedEngine)
			b := startReplicaOver(t, "b-replica", sopts, editedEngine)
			fl := startFrontOver(t, []*testReplica{a, b}, Options{
				Retry: transport.RetryPolicy{Seed: 13, BaseDelay: 10 * time.Millisecond},
			})
			home := fl.home(doc)
			want := singleServerBody(t, fl.replicas[1-home], doc)
			edited, err := transport.NewServer(editedEngine(t), transport.ServerOptions{})
			if err != nil {
				t.Fatal(err)
			}
			layout, err := edited.Layout(opts)
			if err != nil {
				t.Fatal(err)
			}

			client := fl.client(t)
			client.Store = st
			tr := obs.NewTrace(0)
			traced := opts
			traced.Trace = tr
			var progress int
			var killed sync.WaitGroup
			traced.OnProgress = killAt(5, fl.replicas[home], &progress, &killed)
			res, err := client.Fetch(traced)
			killed.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(res.Body, want) {
				t.Fatal("fetch with a stale store returned a body that is not the fleet's document")
			}
			if res.StoredPackets != 0 {
				t.Errorf("the fetch counts %d packets of the original document as stored", res.StoredPackets)
			}
			onWire := make(map[int]bool)
			for _, ev := range tr.Events() {
				if ev.Type == obs.EventPacket {
					onWire[ev.Seq] = true
				}
			}
			missing := 0
			for g, shape := range layout.Shapes {
				for i := 0; i < shape.M; i++ {
					if seq, _ := layout.WireSeq(g, i); !onWire[seq] {
						missing++
					}
				}
			}
			if missing > 0 {
				t.Errorf("%d of the edited body's %d source packets never came over the wire", missing, layout.M())
			}
		})
	}
}

// TestSearchAllReplicasDownIsDegraded: with every replica marked down,
// the front's search answer is the degraded refusal, and the client
// reports it as ErrDegraded, classed "degraded", as it does a fetch's.
func TestSearchAllReplicasDownIsDegraded(t *testing.T) {
	fl := startFleet(t, 2, transport.ServerOptions{}, Options{})
	for _, r := range fl.replicas {
		r.Kill()
	}
	waitFor(t, 5*time.Second, func() bool { return fl.counter("front.markdowns") >= 2 },
		"the killed replicas were never marked down")
	client := fl.client(t)
	_, err := client.Search("mobile web browsing", 3)
	if !errors.Is(err, transport.ErrDegraded) {
		t.Fatalf("search against a fleet that is all down returned %v, want ErrDegraded", err)
	}
	if got := transport.ErrorClass(err); got != "degraded" {
		t.Errorf("ErrorClass = %q, want degraded", got)
	}
}

// TestFrontRedialJitterDeterministic pins the satellite fix: the
// front's failover backoff honours RetryPolicy.Seed, so two fronts
// configured identically replay identical re-dial schedules — the
// property chaos soaks depend on.
func TestFrontRedialJitterDeterministic(t *testing.T) {
	schedule := func(seed int64) []time.Duration {
		f := &Front{opts: Options{Retry: transport.RetryPolicy{Seed: seed}}}
		rng := f.jitter(1)
		out := make([]time.Duration, 8)
		for i := range out {
			out[i] = f.opts.Retry.Backoff(i, rng)
		}
		return out
	}
	// Many fronts, not two: a leak of one random bit into the seed leaves
	// two schedules equal half the time.
	a := schedule(42)
	for run := 1; run < 16; run++ {
		b := schedule(42)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("front %d, attempt %d: seeded front backoff diverged: %v vs %v", run, i, a[i], b[i])
			}
		}
	}
	c := schedule(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical front backoff schedules")
	}
	// Distinct connections under one seed get distinct (but still
	// deterministic) schedules — no failover herd.
	f := &Front{opts: Options{Retry: transport.RetryPolicy{Seed: 42}}}
	r1, r2 := f.jitter(1), f.jitter(2)
	same = true
	for i := 0; i < 8; i++ {
		if f.opts.Retry.Backoff(i, r1) != f.opts.Retry.Backoff(i, r2) {
			same = false
		}
	}
	if same {
		t.Fatal("two connections share one backoff schedule")
	}
}

func TestFrontMetricsProbes(t *testing.T) {
	fl := startFleet(t, 2, transport.ServerOptions{}, Options{})
	fl.front.Monitor().CheckOnce(nil)
	snap := fl.frontReg.Snapshot()
	reps, ok := snap.Probes["replicas"].(map[string]replicaHealth)
	if !ok {
		t.Fatalf("replicas probe payload has type %T", snap.Probes["replicas"])
	}
	if len(reps) != 2 {
		t.Fatalf("replicas probe lists %d replicas, want 2", len(reps))
	}
	capPayload, ok := snap.Probes["capability"].(map[string]string)
	if !ok || capPayload["mode"] == "" {
		t.Fatalf("capability probe payload = %v", snap.Probes["capability"])
	}
}

// TestFountainThroughFront is the regression for the front's fountain
// defects: stopgen mid-stream was a protocol violation (a paced
// multi-generation fetch was cut at the first decoded generation), a
// stale stopgen between streams drew an "unknown op" line that desynced
// the next response, and a resume after a replica death carried an empty
// Have list. The lossy case needs grants beyond the first window, and
// loses its replica where that window ends: the front must pass the
// grants on, and the client's resume, routed to a survivor, opens a fresh
// window rather than waiting on frames nobody sends.
func TestFountainThroughFront(t *testing.T) {
	for _, tc := range []struct {
		name   string
		alpha  float64
		killAt int // kill the home replica after this many frames; 0 = never; -1 = at the window's end
	}{
		{name: "paced multi-generation", killAt: 0},
		{name: "replica kill mid-stream", killAt: 12},
		{name: "lossy, replica kill at the window's end", alpha: 0.4, killAt: -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sopts := transport.ServerOptions{
				Defaults:    core.Config{MaxGeneration: 8},
				PacketDelay: time.Millisecond,
			}
			if tc.alpha > 0 {
				sopts.InjectorFactory = func() transport.FaultInjector {
					model, err := channel.NewBernoulli(tc.alpha, 7)
					if err != nil {
						t.Error(err)
					}
					return transport.NewModelInjector(model)
				}
			}
			fl := startFleet(t, 3, sopts, Options{Retry: transport.RetryPolicy{Seed: 7, BaseDelay: 10 * time.Millisecond}})
			doc := corpus.DraftName
			home := fl.home(doc)
			source, err := corpus.Load(doc)
			if err != nil {
				t.Fatal(err)
			}
			want := source.Body()
			if tc.killAt < 0 {
				// The first window is a fixed-rate round's frames.
				lo, err := fl.replicas[home].srv.Layout(transport.FetchOptions{Doc: doc})
				if err != nil {
					t.Fatal(err)
				}
				tc.killAt = lo.N()
			}

			client := fl.client(t)
			opts := transport.FetchOptions{Doc: doc, Caching: true, Codec: erasure.CodecFountain}
			var progress int
			var killed sync.WaitGroup
			if tc.killAt > 0 {
				opts.OnProgress = killAt(tc.killAt, fl.replicas[home], &progress, &killed)
			}
			res, err := client.Fetch(opts)
			killed.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(res.Body, want) {
				t.Fatal("fountain body through the front differs from a single-server fetch")
			}
			// A replica death costs the client one redial and one round.
			reconnects := 0
			if tc.killAt > 0 {
				reconnects = 1
			}
			if res.Rounds != 1+reconnects || res.Reconnects != reconnects {
				t.Errorf("rounds %d reconnects %d, want %d and %d", res.Rounds, res.Reconnects, 1+reconnects, reconnects)
			}
			if res.Codec != erasure.CodecFountain.String() {
				t.Fatalf("served codec %q, want fountain", res.Codec)
			}
			// A second fetch on the client's connection proves no stale
			// feedback was answered with a stray response line.
			if _, err := client.Fetch(opts); err != nil {
				t.Fatalf("second fetch on the same connection: %v", err)
			}
			if grants := fl.counter("serve.requests_more"); (tc.alpha > 0) != (grants > 0) {
				t.Errorf("the front relayed %d grants at α=%.1f", grants, tc.alpha)
			}
			if tc.killAt == 0 {
				return
			}
			if got := fl.counter("front.reroutes"); got < 1 {
				t.Fatalf("front.reroutes = %d, want >= 1", got)
			}
			resumedHave := 0
			for _, r := range fl.replicas {
				for _, rec := range r.reg.FetchLog().Recent(0) {
					if rec.Doc == doc && rec.Have > resumedHave {
						resumedHave = rec.Have
					}
				}
			}
			if resumedHave == 0 {
				t.Error("resumed fountain request carried an empty Have list")
			}
		})
	}
}

// wireTarget is one way of reaching the same replica: directly, or through
// a front over it.
type wireTarget struct {
	name, addr string
}

// wireTranscript is what a raw client saw of one control-op case up to
// the point where timing decides what follows: the fetch header record,
// the frames read before the op went out, the record that answered the op
// (if the case expects one) and how the case ended.
type wireTranscript struct {
	header  string
	frames  [][]byte
	answer  string
	outcome string
}

// rawWire speaks the wire protocol by hand, for requests a Client never
// sends.
type rawWire struct {
	t    *testing.T
	conn net.Conn
	r    *bufio.Reader
}

func dialRawWire(t *testing.T, addr string) *rawWire {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	return &rawWire{t: t, conn: conn, r: bufio.NewReader(conn)}
}

func (c *rawWire) send(req transport.Request) {
	c.t.Helper()
	w := bufio.NewWriter(c.conn)
	err := transport.WriteRequest(w, req)
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		c.t.Fatal(err)
	}
}

// line reads one control record, raw and decoded.
func (c *rawWire) line() (string, transport.Response, error) {
	size, err := binary.ReadUvarint(c.r)
	if err != nil {
		return "", transport.Response{}, err
	}
	if size > transport.MaxControlLine {
		return "", transport.Response{}, fmt.Errorf("control record of %d bytes", size)
	}
	raw := binary.AppendUvarint(nil, size)
	body := make([]byte, size)
	if _, err := io.ReadFull(c.r, body); err != nil {
		return "", transport.Response{}, err
	}
	raw = append(raw, body...)
	resp, err := transport.ReadResponse(bufio.NewReader(bytes.NewReader(raw)))
	return string(raw), resp, err
}

// frames reads up to n frames (n < 0: to the end marker).
func (c *rawWire) frames(n int) (frames [][]byte, ended bool, err error) {
	for n < 0 || len(frames) < n {
		frame, err := transport.ReadFrame(c.r)
		if err != nil {
			return frames, false, err
		}
		if frame == nil {
			return frames, true, nil
		}
		frames = append(frames, frame)
	}
	return frames, false, nil
}

// TestFrontControlOps is the control-op table, run against a replica
// directly and through a front over that replica: there is one request
// loop and one stream loop, so both must hand the client the same bytes —
// header line, frames, refusal texts — and the same fate, during a stream
// and between streams.
func TestFrontControlOps(t *testing.T) {
	gate := NewGate(GateOptions{MaxInFlight: 8, RetryAfter: 99 * time.Millisecond})
	fl := startFleet(t, 1, transport.ServerOptions{
		Defaults:    core.Config{MaxGeneration: 8},
		PacketDelay: time.Millisecond,
		Admission:   gate,
	}, Options{})
	targets := []wireTarget{{"direct", fl.replicas[0].addr}, {"front", fl.addr}}

	for _, tc := range []struct {
		name   string
		codec  string
		during bool
		op     transport.Request // Op "" closes the connection instead
		want   string            // ends, continues, closed, ignored, refused
	}{
		{"stop during fixed-rate", "vandermonde", true, transport.Request{Op: "stop"}, "ends"},
		{"stop during fountain", "fountain", true, transport.Request{Op: "stop"}, "ends"},
		{"stopgen during fountain", "fountain", true, transport.Request{Op: "stopgen", Gen: 0}, "continues"},
		{"more during fountain", "fountain", true, transport.Request{Op: "more", Frames: 5}, "continues"},
		{"more during fixed-rate", "vandermonde", true, transport.Request{Op: "more", Frames: 5}, "closed"},
		{"search during fountain", "fountain", true, transport.Request{Op: "search", Query: "x"}, "closed"},
		{"unknown op during fixed-rate", "vandermonde", true, transport.Request{Op: "bogus"}, "closed"},
		{"close during fountain", "fountain", true, transport.Request{}, "closed"},
		{"stop between", "vandermonde", false, transport.Request{Op: "stop"}, "ignored"},
		{"stopgen between", "fountain", false, transport.Request{Op: "stopgen", Gen: 1}, "ignored"},
		{"more between", "fountain", false, transport.Request{Op: "more", Frames: 5}, "ignored"},
		{"unknown op between", "vandermonde", false, transport.Request{Op: "bogus"}, "refused"},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var seen []wireTranscript
			for _, target := range targets {
				c := dialRawWire(t, target.addr)
				var tr wireTranscript
				c.send(transport.Request{Op: "fetch", Doc: corpus.DraftName, Codec: tc.codec})
				header, resp, err := c.line()
				if err != nil || !resp.OK {
					t.Fatalf("%s: fetch header: %+v, %v", target.name, resp, err)
				}
				tr.header = header
				if tc.during {
					if tr.frames, _, err = c.frames(3); err != nil {
						t.Fatalf("%s: %v", target.name, err)
					}
				} else {
					c.send(transport.Request{Op: "stop"})
					if _, ended, err := c.frames(-1); err != nil || !ended {
						t.Fatalf("%s: stream did not end cleanly: %v", target.name, err)
					}
				}
				if tc.op.Op == "" {
					// Closing is the case; Close on either server (in the
					// cleanup) must not hang on the vanished client.
					c.conn.Close()
					seen = append(seen, tr)
					continue
				}
				c.send(tc.op)
				inStep := true
				switch tc.want {
				case "ends":
					if _, ended, err := c.frames(-1); err != nil || !ended {
						t.Fatalf("%s: stream did not end after %q: %v", target.name, tc.op.Op, err)
					}
				case "continues":
					if got, ended, err := c.frames(20); err != nil || ended || len(got) != 20 {
						t.Fatalf("%s: stream stopped after %q: %d frames, ended=%v, %v", target.name, tc.op.Op, len(got), ended, err)
					}
					c.send(transport.Request{Op: "stop"})
					if _, ended, err := c.frames(-1); err != nil || !ended {
						t.Fatalf("%s: stream did not end cleanly: %v", target.name, err)
					}
				case "closed":
					if _, ended, err := c.frames(-1); err == nil && ended {
						t.Fatalf("%s: %q mid-stream was tolerated", target.name, tc.op.Op)
					}
					inStep = false
				case "refused":
					line, resp, err := c.line()
					if err != nil || resp.OK || resp.Error == "" {
						t.Fatalf("%s: %q between streams: %+v, %v", target.name, tc.op.Op, resp, err)
					}
					tr.answer = line
				}
				if inStep {
					// The connection is still in step: the next request gets
					// its own response, not a stray line.
					c.send(transport.Request{Op: "search", Query: "mobile web"})
					if _, resp, err := c.line(); err != nil || !resp.OK || len(resp.Hits) == 0 {
						t.Fatalf("%s: search after %q: %+v, %v", target.name, tc.op.Op, resp, err)
					}
				}
				tr.outcome = tc.want
				seen = append(seen, tr)
			}
			if !reflect.DeepEqual(seen[0], seen[1]) {
				t.Errorf("client-visible bytes differ\ndirect %q %d frames %q\n front %q %d frames %q",
					seen[0].header, len(seen[0].frames), seen[0].answer, seen[1].header, len(seen[1].frames), seen[1].answer)
			}
		})
	}

	// Refusals at the header: the replica's own shed and capability
	// refusal reach the client byte for byte through the front.
	for _, tc := range []struct {
		name   string
		refuse func() (undo func())
	}{
		{"shed", func() func() {
			var held []func()
			for {
				release, _, ok := gate.Admit(true)
				if !ok {
					break
				}
				held = append(held, release)
			}
			return func() {
				for _, release := range held {
					release()
				}
			}
		}},
		{"degraded", func() func() {
			fl.replicas[0].capability.Set(transport.CapSearchOnly)
			return func() { fl.replicas[0].capability.Set(transport.CapFull) }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Streams the cases above abandoned still hold slots until
			// their handlers notice.
			waitFor(t, 5*time.Second, func() bool { return gate.InFlight() == 0 }, "replica gate never drained")
			defer tc.refuse()()
			var lines []string
			for _, target := range targets {
				c := dialRawWire(t, target.addr)
				c.send(transport.Request{Op: "fetch", Doc: corpus.DraftName})
				line, resp, err := c.line()
				if err != nil || resp.OK || resp.Shed != (tc.name == "shed") || resp.Degraded != (tc.name == "degraded") {
					t.Fatalf("%s: %+v, %v", target.name, resp, err)
				}
				lines = append(lines, line)
			}
			if lines[0] != lines[1] {
				t.Errorf("refusal differs\ndirect %s front %s", lines[0], lines[1])
			}
		})
	}

	// What the Client counts is the same either way. (A fountain fetch
	// counts the frames in flight when a stopgen lands, so only its round
	// and reconnect counts are comparable.)
	for _, codec := range []erasure.CodecID{erasure.CodecVandermonde, erasure.CodecFountain} {
		t.Run("fetch result "+codec.String(), func(t *testing.T) {
			var results []*transport.FetchResult
			for _, target := range targets {
				c, err := transport.Dial(target.addr)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				c.Timeout = 10 * time.Second
				res, err := c.Fetch(transport.FetchOptions{Doc: corpus.DraftName, Caching: true, Codec: codec})
				if err != nil {
					t.Fatalf("%s: %v", target.name, err)
				}
				results = append(results, res)
			}
			d, f := results[0], results[1]
			if !bytes.Equal(d.Body, f.Body) || d.Rounds != f.Rounds || d.Reconnects != f.Reconnects || d.Codec != f.Codec || d.Replica != f.Replica {
				t.Errorf("direct %d rounds %d reconnects %s by %s, front %d rounds %d reconnects %s by %s (or bodies differ)",
					d.Rounds, d.Reconnects, d.Codec, d.Replica, f.Rounds, f.Reconnects, f.Codec, f.Replica)
			}
			if codec == erasure.CodecVandermonde && (d.PacketsReceived != f.PacketsReceived || d.BytesReceived != f.BytesReceived ||
				d.PacketsCorrupted != f.PacketsCorrupted || d.RefetchedPackets != f.RefetchedPackets || d.HeldPackets != f.HeldPackets) {
				t.Errorf("direct received %d packets / %d bytes / %d held, front %d / %d / %d",
					d.PacketsReceived, d.BytesReceived, d.HeldPackets, f.PacketsReceived, f.BytesReceived, f.HeldPackets)
			}
		})
	}
}

// goroutineBaseline waits until the goroutine count has held still for
// 50 ms (at most 2 s) and returns it, so a baseline does not count what
// earlier tests are still tearing down: those exits would otherwise
// hide a goroutine the test under way leaks.
func goroutineBaseline() int {
	n := runtime.NumGoroutine()
	deadline := time.Now().Add(2 * time.Second)
	for still := 0; still < 5 && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			still++
		} else {
			n, still = m, 0
		}
	}
	return n
}

// settleGoroutines waits for the goroutine count to come back down to
// baseline and fails the test, with a dump of what is still running, if
// it does not.
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, want at most %d:\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStreamOutlastsIdleTimeoutThroughFront is transport's idle-timer
// regression on both hops of a proxied fetch: neither the front's nor the
// replica's request loop may cut a stream for outlasting IdleTimeout.
func TestStreamOutlastsIdleTimeoutThroughFront(t *testing.T) {
	doc, err := corpus.Load(corpus.DraftName)
	if err != nil {
		t.Fatal(err)
	}
	fl := startFleet(t, 1, transport.ServerOptions{
		IdleTimeout: 100 * time.Millisecond,
		PacketDelay: 10 * time.Millisecond,
	}, Options{IdleTimeout: 100 * time.Millisecond})
	res, err := fl.client(t).Fetch(transport.FetchOptions{Doc: corpus.DraftName, Caching: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 || res.Reconnects != 0 {
		t.Errorf("fetch took %d rounds and %d reconnects, want 1 and 0", res.Rounds, res.Reconnects)
	}
	if !bytes.Equal(res.Body, doc.Body()) {
		t.Error("body differs from the source document")
	}
	if rec := frontRecord(t, fl, corpus.DraftName); rec.Err != "" || fl.counter("front.reroutes") != 0 {
		t.Errorf("front record %+v, want no re-route and no error", rec)
	}
}

// pipeListener hands a server in-memory connections: net.Pipe has no
// buffer, so a peer that stops reading blocks the very next write.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case conn := <-l.conns:
		return conn, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

// TestWriteDeadlineReleasesFrontHandler is transport's write-deadline
// regression through a front: a client that stops reading mid-stream must
// cost the front its handler, its admission slot and its replica leg for
// no longer than IOTimeout.
func TestWriteDeadlineReleasesFrontHandler(t *testing.T) {
	baseline := runtime.NumGoroutine()
	t.Run("fleet", func(t *testing.T) {
		replica := startReplica(t, "a-replica", transport.ServerOptions{})
		front, err := NewFront(Options{Replicas: []Replica{replica.Replica()}, IOTimeout: 100 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		ln := &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
		served := make(chan struct{})
		go func() {
			defer close(served)
			front.Serve(ln)
		}()
		defer func() {
			front.Close()
			<-served
			replica.Kill()
		}()

		clientEnd, serverEnd := net.Pipe()
		defer clientEnd.Close()
		ln.conns <- serverEnd
		w := bufio.NewWriter(clientEnd)
		if err := transport.WriteRequest(w, transport.Request{Op: "fetch", Doc: corpus.DraftName}); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		r := bufio.NewReader(clientEnd)
		if resp, err := transport.ReadResponse(r); err != nil || !resp.OK {
			t.Fatalf("fetch header: %+v, %v", resp, err)
		}
		for i := 0; i < 3; i++ {
			if frame, err := transport.ReadFrame(r); err != nil || frame == nil {
				t.Fatalf("frame %d: %v", i, err)
			}
		}
		if held := front.Gate().InFlight(); held != 1 {
			t.Fatalf("%d admission slots held mid-stream, want 1", held)
		}
		// The client stops reading here.
		waitFor(t, 5*time.Second, func() bool { return front.Gate().InFlight() == 0 },
			"front handler still holds its admission slot for a peer that stopped reading")
	})
	settleGoroutines(t, baseline)
}

// TestNoGoroutinesAfterFrontClose closes a front and its replicas over a
// finished fetch, an idle connection and one mid-stream: nothing either
// server started may outlive it.
func TestNoGoroutinesAfterFrontClose(t *testing.T) {
	baseline := goroutineBaseline()
	t.Run("fleet", func(t *testing.T) {
		fl := startFleet(t, 2, transport.ServerOptions{PacketDelay: time.Millisecond}, Options{})
		client := fl.client(t)
		for _, codec := range []erasure.CodecID{erasure.CodecVandermonde, erasure.CodecFountain} {
			if _, err := client.Fetch(transport.FetchOptions{Doc: corpus.DraftName, Caching: true, Codec: codec}); err != nil {
				t.Fatal(err)
			}
		}
		midStream := dialRawWire(t, fl.addr)
		midStream.send(transport.Request{Op: "fetch", Doc: corpus.DraftName, Codec: "fountain"})
		if _, resp, err := midStream.line(); err != nil || !resp.OK {
			t.Fatalf("fetch header: %+v, %v", resp, err)
		}
		if _, _, err := midStream.frames(3); err != nil {
			t.Fatal(err)
		}
		fl.front.Close()
		for _, r := range fl.replicas {
			r.Kill()
		}
	})
	settleGoroutines(t, baseline)
}
