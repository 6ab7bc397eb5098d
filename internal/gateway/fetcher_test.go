package gateway

import (
	"context"
	"fmt"
	"net/http"
	"testing"
	"time"

	"mobweb/internal/core"
	"mobweb/internal/document"
	"mobweb/internal/erasure"
	"mobweb/internal/obs"
	"mobweb/internal/transport"
)

// stubFetcher scripts the transport tier's behaviour for gateway tests:
// it reports units, one frame each under res's response header, then
// returns res and err.
type stubFetcher struct {
	units []core.RenderedUnit
	res   *transport.FetchResult
	err   error
}

func (s *stubFetcher) FetchContext(_ context.Context, opts transport.FetchOptions) (*transport.FetchResult, error) {
	ic := 0.0
	for i, u := range s.units {
		ic += u.Segment.Score
		p := transport.Progress{Seq: i, Intact: true, InfoContent: ic, NewUnits: []core.RenderedUnit{u}}
		if s.res != nil {
			p.Replica, p.Capability, p.Codec = s.res.Replica, s.res.Capability, s.res.Codec
		}
		opts.OnProgress(p)
	}
	return s.res, s.err
}

// twoUnits is a scripted unit stream and the body the gateway makes of it.
var twoUnits = []core.RenderedUnit{
	{Segment: core.SegmentMeta{Label: "1.0.0", Level: document.LODParagraph, Score: 0.625}, Text: "first paragraph"},
	{Segment: core.SegmentMeta{Label: "0.0.0", Level: document.LODParagraph, Score: 0.375}, Text: "second paragraph"},
}

const twoUnitsBody = "── paragraph 1.0.0 (score 0.6250) \nfirst paragraph\n\n" +
	"── paragraph 0.0.0 (score 0.3750) \nsecond paragraph\n\n"

// newRemoteGateway builds a gateway whose /doc is backed by the stub.
func newRemoteGateway(t *testing.T, f Fetcher) (*Handler, *obs.Registry) {
	t.Helper()
	h := newGateway(t)
	reg := obs.NewRegistry()
	h.SetMetrics(reg)
	h.SetFetcher(f)
	return h, reg
}

func TestDocRemoteServesBodyWithTierHeaders(t *testing.T) {
	h, reg := newRemoteGateway(t, &stubFetcher{units: twoUnits, res: &transport.FetchResult{
		Body:       []byte("reconstructed document"),
		Replica:    "b-replica",
		Capability: "fetch-degraded",
		Rounds:     1,
	}})
	rec := get(t, h, "/doc/the-draft.xml?q=mobile")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200", rec.Code)
	}
	if got := rec.Body.String(); got != twoUnitsBody {
		t.Errorf("body = %q, want the unit blocks %q", got, twoUnitsBody)
	}
	if rec.Header().Get("X-Document-Title") != "" {
		t.Error("X-Document-Title set for a document the gateway's engine does not index")
	}
	if got := rec.Header().Get("X-Mobweb-Replica"); got != "b-replica" {
		t.Errorf("X-Mobweb-Replica = %q, want b-replica", got)
	}
	if got := rec.Header().Get("X-Mobweb-Capability"); got != "fetch-degraded" {
		t.Errorf("X-Mobweb-Capability = %q, want fetch-degraded", got)
	}
	logged := reg.FetchLog().Recent(0)
	if len(logged) != 1 || logged[0].Origin != "gateway" || logged[0].Err != "" || logged[0].Replica != "b-replica" {
		t.Errorf("gateway fetch log = %+v", logged)
	}
}

func TestDocRemoteDefaultsCapabilityHeaderToFull(t *testing.T) {
	h, _ := newRemoteGateway(t, &stubFetcher{res: &transport.FetchResult{Body: []byte("x")}})
	rec := get(t, h, "/doc/the-draft.xml")
	if got := rec.Header().Get("X-Mobweb-Capability"); got != "full" {
		t.Errorf("X-Mobweb-Capability = %q, want full", got)
	}
	if rec.Header().Get("X-Mobweb-Replica") != "" {
		t.Error("X-Mobweb-Replica set despite an anonymous server")
	}
}

func TestDocRemoteShedBecomes503WithRetryAfter(t *testing.T) {
	h, reg := newRemoteGateway(t, &stubFetcher{
		err: fmt.Errorf("round 1: %w", &transport.ShedError{RetryAfter: 1500 * time.Millisecond}),
	})
	rec := get(t, h, "/doc/the-draft.xml")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", rec.Code)
	}
	// 1.5 s rounds UP: retrying at 1 s would beat the hint.
	if got := rec.Header().Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After = %q, want 2", got)
	}
	snap := reg.Snapshot()
	if snap.Counters["gateway.unavailable"] != 1 {
		t.Errorf("gateway.unavailable = %d, want 1", snap.Counters["gateway.unavailable"])
	}
	logged := reg.FetchLog().Recent(0)
	if len(logged) != 1 || logged[0].Err != "shed" {
		t.Errorf("fetch log class = %+v, want shed", logged)
	}
}

func TestDocRemoteBareShedGetsMinimumRetryAfter(t *testing.T) {
	h, _ := newRemoteGateway(t, &stubFetcher{err: transport.ErrShed})
	rec := get(t, h, "/doc/the-draft.xml")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want the 1 s minimum", got)
	}
}

func TestDocRemoteDegradedBecomes503(t *testing.T) {
	h, reg := newRemoteGateway(t, &stubFetcher{
		err: fmt.Errorf("fetch refused by down fleet: %w", transport.ErrDegraded),
	})
	rec := get(t, h, "/doc/the-draft.xml")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("degraded 503 carries no Retry-After")
	}
	logged := reg.FetchLog().Recent(0)
	if len(logged) != 1 || logged[0].Err != "degraded" {
		t.Errorf("fetch log class = %+v, want degraded", logged)
	}
}

func TestDocRemoteOtherErrorsBecome502(t *testing.T) {
	h, reg := newRemoteGateway(t, &stubFetcher{err: transport.ErrRoundsExhausted})
	rec := get(t, h, "/doc/the-draft.xml")
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502", rec.Code)
	}
	logged := reg.FetchLog().Recent(0)
	if len(logged) != 1 || logged[0].Err != "rounds-exhausted" {
		t.Errorf("fetch log class = %+v, want rounds-exhausted", logged)
	}
}

func TestDocRemoteFailureAfterUnitsEndsWithTerminalLine(t *testing.T) {
	h, reg := newRemoteGateway(t, &stubFetcher{
		units: twoUnits[:1],
		res:   &transport.FetchResult{Replica: "b-replica", Rounds: 1},
		err:   fmt.Errorf("redial failed: %w", transport.ErrDisconnected),
	})
	rec := get(t, h, "/doc/the-draft.xml")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want the 200 the first unit committed to", rec.Code)
	}
	want := "── paragraph 1.0.0 (score 0.6250) \nfirst paragraph\n\n" +
		"── fetch ended: disconnected at information content 0.625 ──\n"
	if got := rec.Body.String(); got != want {
		t.Errorf("body = %q, want %q", got, want)
	}
	if got := rec.Header().Get("X-Mobweb-Replica"); got != "b-replica" {
		t.Errorf("X-Mobweb-Replica = %q, want b-replica", got)
	}
	if logged := reg.FetchLog().Recent(0); len(logged) != 1 || logged[0].Err != "disconnected" {
		t.Errorf("fetch log = %+v, want one disconnected record", logged)
	}
}

func TestDocRemoteICStopKeepsStopLine(t *testing.T) {
	f := &recordingFetcher{stubFetcher: stubFetcher{units: twoUnits[:1], res: &transport.FetchResult{InfoContent: 0.625}}}
	h, _ := newRemoteGateway(t, f)
	rec := get(t, h, "/doc/the-draft.xml?ic=0.5")
	want := "── paragraph 1.0.0 (score 0.6250) \nfirst paragraph\n\n── stopped at information content 0.625 ──\n"
	if got := rec.Body.String(); got != want {
		t.Errorf("body = %q, want %q", got, want)
	}
	if len(f.got) != 1 || f.got[0].StopAtIC != 0.5 || !f.got[0].Caching {
		t.Errorf("fetch options = %+v, want StopAtIC 0.5 with caching", f.got)
	}
}

func TestDocRemoteBadParamsRejectedBeforeFetch(t *testing.T) {
	h, _ := newRemoteGateway(t, &stubFetcher{res: &transport.FetchResult{Body: []byte("x")}})
	if rec := get(t, h, "/doc/the-draft.xml?lod=bogus"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad lod status = %d, want 400", rec.Code)
	}
	if rec := get(t, h, "/doc/the-draft.xml?notion=bogus"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad notion status = %d, want 400", rec.Code)
	}
}

func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 1},
		{-time.Second, 1},
		{250 * time.Millisecond, 1},
		{time.Second, 1},
		{1001 * time.Millisecond, 2},
		{5 * time.Second, 5},
	}
	for _, c := range cases {
		if got := retryAfterSeconds(c.d); got != c.want {
			t.Errorf("retryAfterSeconds(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

// recordingFetcher additionally captures the options each fetch received.
type recordingFetcher struct {
	stubFetcher
	got []transport.FetchOptions
}

func (r *recordingFetcher) FetchContext(ctx context.Context, opts transport.FetchOptions) (*transport.FetchResult, error) {
	r.got = append(r.got, opts)
	return r.stubFetcher.FetchContext(ctx, opts)
}

func TestDocRemoteCodecQueryAndHeader(t *testing.T) {
	f := &recordingFetcher{stubFetcher: stubFetcher{res: &transport.FetchResult{
		Body:  []byte("rateless body"),
		Codec: "fountain",
	}}}
	h, _ := newRemoteGateway(t, f)
	rec := get(t, h, "/doc/the-draft.xml?codec=fountain")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200", rec.Code)
	}
	if got := rec.Header().Get("X-Mobweb-Codec"); got != "fountain" {
		t.Errorf("X-Mobweb-Codec = %q, want fountain", got)
	}
	if len(f.got) != 1 || f.got[0].Codec != erasure.CodecFountain {
		t.Errorf("fetch options = %+v, want fountain codec requested", f.got)
	}
}

func TestDocRemoteBadCodecRejectedBeforeFetch(t *testing.T) {
	f := &recordingFetcher{stubFetcher: stubFetcher{res: &transport.FetchResult{Body: []byte("x")}}}
	h, _ := newRemoteGateway(t, f)
	rec := get(t, h, "/doc/the-draft.xml?codec=bogus")
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad codec status = %d, want 400", rec.Code)
	}
	if len(f.got) != 0 {
		t.Errorf("fetch ran %d times despite bad codec", len(f.got))
	}
}

func TestDocRemoteCodecHeaderReflectsServedCodec(t *testing.T) {
	// A degraded replica may answer a fountain request with the fixed-rate
	// codec; the header must report what was served, not what was asked.
	h, _ := newRemoteGateway(t, &stubFetcher{res: &transport.FetchResult{
		Body:  []byte("x"),
		Codec: "vandermonde",
	}})
	rec := get(t, h, "/doc/the-draft.xml?codec=fountain")
	if got := rec.Header().Get("X-Mobweb-Codec"); got != "vandermonde" {
		t.Errorf("X-Mobweb-Codec = %q, want vandermonde", got)
	}
}
