package transport

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mobweb/internal/channel"
	"mobweb/internal/core"
	"mobweb/internal/corpus"
	"mobweb/internal/erasure"
	"mobweb/internal/planner"
)

// keptFrame is one frame a source handed to the stream loop, with the
// request it streamed for. bytes is the slice itself, not a copy: a
// frame-cache entry, shared with every other stream of that frame.
type keptFrame struct {
	req   Request
	seq   int
	bytes []byte
}

// keepingBackend passes fetches through to the server's own transmitter
// and keeps every frame its sources hand out.
type keepingBackend struct {
	Backend
	mu   sync.Mutex
	kept []keptFrame
}

func (b *keepingBackend) Fetch(req Request) (Response, FrameSource, func(int, error)) {
	hdr, src, end := b.Backend.Fetch(req)
	if src == nil {
		return hdr, src, end
	}
	return hdr, &keepingSource{FrameSource: src, b: b, req: req}, end
}

type keepingSource struct {
	FrameSource
	b   *keepingBackend
	req Request
}

func (s *keepingSource) Next(ctl <-chan Request) (Frame, Request, error) {
	fr, creq, err := s.FrameSource.Next(ctl)
	if fr.Bytes != nil {
		s.b.mu.Lock()
		s.b.kept = append(s.b.kept, keptFrame{req: s.req, seq: fr.Seq, bytes: fr.Bytes})
		s.b.mu.Unlock()
	}
	return fr, creq, err
}

// TestFramePurityConcurrent is TestPlanPurityConcurrent for cooked wire
// frames: concurrent clients fetch every corpus document under both
// codecs over seeded Bernoulli channels from one server, so one frame
// cache serves them all. Every frame Resolved.Frame and FountainFrame
// handed out (through the cache's Get on a hit) is kept, and once the
// fetches are over each must still equal a fresh cook by a planner that
// caches nothing. A write through a shared frame anywhere — a caller, the
// planner, a fault injector that corrupts the cached bytes instead of a
// private copy — leaves a kept frame that differs.
func TestFramePurityConcurrent(t *testing.T) {
	defaults := core.Config{MaxGeneration: 8}
	var seed atomic.Int64
	srv, err := NewServer(corpusEngine(t), ServerOptions{
		Defaults: defaults,
		InjectorFactory: func() FaultInjector {
			model, err := channel.NewBernoulli(0.2, seed.Add(1))
			if err != nil {
				panic(err)
			}
			return NewModelInjector(model)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	keep := &keepingBackend{Backend: srv.backend}
	srv.backend = keep
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		srv.Serve(ln)
	}()
	t.Cleanup(func() {
		srv.Close()
		<-serveDone
	})

	bodies := make(map[string][]byte)
	for _, name := range corpus.Names() {
		doc, err := corpus.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		bodies[name] = doc.Body()
	}
	const clients = 4
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client, err := Dial(ln.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer client.Close()
			client.Timeout = 10 * time.Second
			for _, codec := range []erasure.CodecID{erasure.CodecVandermonde, erasure.CodecFountain} {
				for _, name := range corpus.Names() {
					res, err := client.Fetch(FetchOptions{Doc: name, Query: "mobile web", Caching: true, MaxRounds: 40, Codec: codec})
					if err != nil {
						errs <- fmt.Errorf("%s under %v: %w", name, codec, err)
						return
					}
					if !bytes.Equal(res.Body, bodies[name]) {
						errs <- fmt.Errorf("%s under %v: body differs from the source document", name, codec)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	fresh, err := NewServer(corpusEngine(t), ServerOptions{
		Defaults: defaults,
		Planner:  corpusPlanner(t, planner.Options{Defaults: defaults, FrameCacheBytes: -1}),
	})
	if err != nil {
		t.Fatal(err)
	}
	resolved := make(map[string]resolution)
	keep.mu.Lock()
	kept := keep.kept
	keep.mu.Unlock()
	if len(kept) == 0 {
		t.Fatal("no frame was handed out")
	}
	for i, k := range kept {
		id := fmt.Sprintf("%+v", k.req)
		r, ok := resolved[id]
		if !ok {
			var refusal Response
			if r, refusal = fresh.local.resolve(k.req); refusal.Error != "" {
				t.Fatal(refusal.Error)
			}
			resolved[id] = r
		}
		var want []byte
		if r.codec == erasure.CodecFountain {
			gen, local, _ := r.layout.SplitSeq(k.seq)
			want, err = r.resolved.FountainFrame(r.layout.Seed, gen, local)
		} else {
			want, err = r.resolved.Frame(k.seq)
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(k.bytes, want) {
			t.Fatalf("frame %d of %d (%s, seq %d) no longer equals a fresh cook: a shared frame was written through",
				i, len(kept), k.req.Doc, k.seq)
		}
	}
}
