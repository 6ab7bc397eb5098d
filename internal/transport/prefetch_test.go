package transport

import (
	"bufio"
	"net"
	"testing"
	"time"

	"mobweb/internal/channel"
	"mobweb/internal/content"
	"mobweb/internal/core"
	"mobweb/internal/corpus"
	"mobweb/internal/document"
	"mobweb/internal/erasure"
	"mobweb/internal/planner"
)

func TestPrefetchThenFetch(t *testing.T) {
	client := startServer(t, ServerOptions{})
	opts := FetchOptions{
		Doc:    corpus.DraftName,
		Query:  "mobile web",
		LOD:    document.LODParagraph,
		Notion: content.NotionQIC,
	}
	got, err := client.Prefetch(opts, 15)
	if err != nil {
		t.Fatal(err)
	}
	if got.Intact != 15 || got.Received != 15 {
		t.Errorf("prefetched %d intact of %d received on a clean channel, want 15/15", got.Intact, got.Received)
	}
	opts.Caching = true
	res, err := client.Fetch(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.PrefetchedPackets != 15 {
		t.Errorf("fetch saw %d prefetched packets, want 15", res.PrefetchedPackets)
	}
	if res.Body == nil {
		t.Fatal("fetch incomplete")
	}
	// The prefetched packets must not be re-sent: total received over the
	// wire during fetch is N - 15.
	if res.PacketsReceived >= 45 {
		t.Errorf("fetch received %d packets; selective continuation failed", res.PacketsReceived)
	}
	// A second fetch has no primed receiver left.
	res2, err := client.Fetch(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res2.PrefetchedPackets != 0 {
		t.Errorf("primed receiver reused twice (%d packets)", res2.PrefetchedPackets)
	}
}

func TestPrefetchTopUp(t *testing.T) {
	client := startServer(t, ServerOptions{})
	opts := FetchOptions{Doc: corpus.DraftName}
	if _, err := client.Prefetch(opts, 10); err != nil {
		t.Fatal(err)
	}
	got, err := client.Prefetch(opts, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got.Intact != 20 {
		t.Errorf("topped-up prefetch holds %d packets, want 20", got.Intact)
	}
	if got.Received != 10 {
		t.Errorf("top-up window received %d frames, want its own budget of 10", got.Received)
	}
}

func TestPrefetchShapeMismatchIgnored(t *testing.T) {
	client := startServer(t, ServerOptions{})
	if _, err := client.Prefetch(FetchOptions{Doc: corpus.DraftName, LOD: document.LODParagraph}, 10); err != nil {
		t.Fatal(err)
	}
	// Fetch with a different LOD: the primed receiver must not be used.
	res, err := client.Fetch(FetchOptions{Doc: corpus.DraftName, LOD: document.LODSection})
	if err != nil {
		t.Fatal(err)
	}
	if res.PrefetchedPackets != 0 {
		t.Errorf("shape-mismatched prefetch reused (%d packets)", res.PrefetchedPackets)
	}
	if res.Body == nil {
		t.Fatal("fetch incomplete")
	}
}

func TestPrefetchValidation(t *testing.T) {
	client := startServer(t, ServerOptions{})
	if _, err := client.Prefetch(FetchOptions{}, 5); err == nil {
		t.Error("empty doc accepted")
	}
	if _, err := client.Prefetch(FetchOptions{Doc: "x"}, 0); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := client.Prefetch(FetchOptions{Doc: "missing.xml"}, 5); err == nil {
		t.Error("unknown document accepted")
	}
}

func TestPrefetchOverLossyChannelStillHelps(t *testing.T) {
	model, err := channel.NewBernoulli(0.3, 21)
	if err != nil {
		t.Fatal(err)
	}
	client := startServer(t, ServerOptions{Injector: NewModelInjector(model)})
	opts := FetchOptions{Doc: corpus.DraftName, Caching: true, MaxRounds: 30}
	got, err := client.Prefetch(opts, 20)
	if err != nil {
		t.Fatal(err)
	}
	// The budget is charged in transmissions: corrupted frames burn it
	// without contributing intact packets.
	if got.Received != 20 {
		t.Errorf("lossy prefetch received %d frames, want the full budget of 20", got.Received)
	}
	if got.Intact == 0 {
		t.Fatal("lossy prefetch delivered nothing")
	}
	if got.Intact > got.Received {
		t.Errorf("intact %d exceeds received %d", got.Intact, got.Received)
	}
	intact := got.Intact
	res, err := client.Fetch(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.PrefetchedPackets != intact {
		t.Errorf("fetch saw %d prefetched, want %d", res.PrefetchedPackets, intact)
	}
	if res.Body == nil {
		t.Fatal("fetch incomplete")
	}
}

func TestPrefetchWholeDocumentShortCircuits(t *testing.T) {
	// A budget covering the whole stream primes a fully reconstructible
	// receiver; the subsequent fetch needs only the header exchange.
	client := startServer(t, ServerOptions{})
	opts := FetchOptions{Doc: "mobile-survey.html", Caching: true}
	if _, err := client.Prefetch(opts, 10_000); err != nil {
		t.Fatal(err)
	}
	res, err := client.Fetch(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Body == nil {
		t.Fatal("fetch incomplete")
	}
	if res.PacketsReceived != 0 {
		t.Errorf("fully-prefetched fetch still received %d packets", res.PacketsReceived)
	}
}

// TestFountainPrefetchSendsStopgen pins the one wire change of sharing a
// round between fetch and prefetch: a prefetch on a rateless stream now
// closes the loop per generation, instead of letting the transmitter
// spend the idle window's budget on a generation already decoded. The
// scripted server streams generation 0 only, until the client says
// something; the first thing it says must be that generation's stopgen.
func TestFountainPrefetchSendsStopgen(t *testing.T) {
	srv, err := NewServer(corpusEngine(t), ServerOptions{Defaults: core.Config{MaxGeneration: 8}})
	if err != nil {
		t.Fatal(err)
	}
	resolved, err := srv.local.planner.ResolveFrames(planner.Request{Doc: corpus.DraftName})
	if err != nil {
		t.Fatal(err)
	}
	plan := resolved.Plan
	const seed = 9
	layout := plan.FountainLayout(seed)
	cliEnd, srvEnd := net.Pipe()
	defer cliEnd.Close()
	defer srvEnd.Close()

	first := make(chan Request, 1)
	go func() {
		r := bufio.NewReader(srvEnd)
		if _, err := r.ReadBytes('\n'); err != nil { // the fetch request
			return
		}
		if WriteJSONLine(srvEnd, Response{OK: true, Layout: &layout}) != nil {
			return
		}
		control := make(chan Request, 1)
		go func() {
			if line, err := r.ReadBytes('\n'); err == nil {
				req, _ := DecodeRequest(line)
				control <- req
			}
		}()
		for seq := 0; ; seq++ {
			select {
			case req := <-control:
				first <- req
				WriteEndOfStream(srvEnd)
				return
			default:
			}
			frame, err := plan.FountainFrame(seed, 0, seq)
			if err != nil || WriteFrame(srvEnd, frame) != nil {
				return
			}
		}
	}()

	client := NewClient(cliEnd)
	client.Timeout = 5 * time.Second
	if _, err := client.Prefetch(FetchOptions{Doc: corpus.DraftName, Codec: erasure.CodecFountain}, 10000); err != nil {
		t.Fatal(err)
	}
	select {
	case req := <-first:
		if req.Op != "stopgen" || req.Gen != 0 {
			t.Fatalf("first control request was %+v, want stopgen for generation 0", req)
		}
	default:
		t.Fatal("prefetch returned without sending any control request")
	}
}
