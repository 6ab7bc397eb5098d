package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"time"

	"mobweb/internal/core"
	"mobweb/internal/crc"
	"mobweb/internal/erasure"
	"mobweb/internal/fountain"
	"mobweb/internal/gf256"
	"mobweb/internal/packet"
	"mobweb/internal/planner"
	"mobweb/internal/store"
	"mobweb/internal/textproc"
	"mobweb/internal/transport"
)

// The traced pass attributes an op's time to the layers from outside them.
// Each traced op first runs live, with spans around Dial, Fetch and store
// Open; once all live ops are done, each is replayed in-process: the same
// document, query, codec and channel seed are pushed through the layers'
// public functions one stage after another, in the order a fetch crosses
// them, and each stage is timed as one loop over the op's frames (so the
// clock is read twice per stage, not twice per frame). Whatever the live
// op spent that no stage reproduces - the JSON header, bufio, the
// scheduler, the skim's per-frame InfoContent - is transport.unattributed.
//
// Replaying after the live ops, not between them, keeps the live ops
// back to back like an untimed slice, and lets the erasure and fountain
// inverse caches (8 and 32 entries) forget an op's loss pattern before its
// replay decodes it again.

// span is one timed interval of one op, the trace file's record.
type span struct {
	Op      string `json:"op"`
	Name    string `json:"name"`
	Parent  string `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// legResult is what one live fetch of a traced op saw on the wire; the
// replay's channel simulation must arrive at the same counts.
type legResult struct{ frames, corrupt int }

// opTrace collects one op's spans. Times are nanoseconds since base.
type opTrace struct {
	id    string
	base  time.Time
	spans []span
	legs  []legResult
}

func (t *opTrace) span(name, parent string, start, end time.Time) {
	t.spans = append(t.spans, span{t.id, name, parent, int64(start.Sub(t.base)), int64(end.Sub(t.base))})
}

// step is one frame of a replayed stream: its generation and row, and the
// sequence number the wire and the receiver know it by.
type step struct{ gen, row, key int }

// replayer holds what the replays of one workload share.
type replayer struct {
	b       *bench
	samples map[string][]float64 // metric name -> one value per op
	// wireW/wireR are the two ends of the loopback pair transport.wire
	// pushes frames through.
	wireW, wireR net.Conn
	scratch      *store.Store
	scratchDir   string
	// mismatches counts ops whose simulated stream disagreed with the live
	// fetch; simFrames and simCorrupt total what the simulated channel did.
	mismatches, simFrames, simCorrupt int
}

func newReplayer(b *bench) (*replayer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	r := &replayer{b: b, samples: make(map[string][]float64)}
	if r.wireW, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		return nil, err
	}
	if r.wireR, err = ln.Accept(); err != nil {
		r.wireW.Close()
		return nil, err
	}
	if b.w.store {
		r.scratchDir = filepath.Join(b.cfg.outDir, fmt.Sprintf("replay-store-%d", os.Getpid()))
		if err := r.resetScratch(); err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

// resetScratch starts the replay's own packet store afresh. Eviction is
// off so the bytes an op appends can be read off Stats.
func (r *replayer) resetScratch() (err error) {
	if r.scratch != nil {
		r.scratch.Close()
	}
	os.RemoveAll(r.scratchDir)
	r.scratch, err = store.Open(r.scratchDir, store.Options{MaxBytes: -1, SegmentBytes: 128 << 10})
	return err
}

func (r *replayer) close() {
	r.wireW.Close()
	r.wireR.Close()
	if r.scratch != nil {
		r.scratch.Close()
		os.RemoveAll(r.scratchDir)
	}
}

func (r *replayer) sample(name string, v float64) { r.samples[name] = append(r.samples[name], v) }

// opReplay is the state of one op's replay. A visit is two fetches (legs)
// that share the receiver, as the store carries its state from the skim's
// client to the next; every other op is one leg.
type opReplay struct {
	*replayer
	tr       *opTrace
	o        op
	doc      string
	storeKey string
	staged   time.Duration  // sum of the top-level stages
	rcv      *core.Receiver // the receiver the timed stages fill
	bytesToF int

	renderProgress, storePut, storeSeed time.Duration
}

// stage records a top-level replay stage: a span under "replay" whose
// duration counts against the live op.
func (o *opReplay) stage(name string, start, end time.Time) {
	o.tr.span(name, "replay", start, end)
	o.staged += end.Sub(start)
}

// child records work measured on its own that runs inside parent: the
// span is placed at the parent's start so that self time (parent minus
// children) comes out right.
func (o *opReplay) child(name, parent string, parentStart time.Time, d time.Duration) {
	o.tr.span(name, parent, parentStart, parentStart.Add(d))
}

// tracedPass runs the traced ops live, replays them, writes the trace file
// and returns the live result with the per-op layer samples.
func (b *bench) tracedPass() (opsResult, *replayer, []*opTrace, error) {
	from := b.counts.warm + numSlices*b.counts.slice
	base := time.Now()
	traces := make([]*opTrace, b.counts.traced)
	for i := range traces {
		traces[i] = &opTrace{id: fmt.Sprintf("%s/%d", b.w.name, from+i), base: base}
	}
	live := b.runOps(from, len(traces), traces)
	r, err := newReplayer(b)
	if err != nil {
		return live, nil, nil, err
	}
	defer r.close()
	for i, tr := range traces {
		if live.times[i].total == 0 {
			continue // a failed op is already counted; there is nothing to attribute
		}
		if err := r.replay(i, b.ops[from+i], tr, live.times[i]); err != nil {
			return live, nil, nil, fmt.Errorf("bench: replay of %s: %w", tr.id, err)
		}
	}
	var all []span
	for _, tr := range traces {
		all = append(all, tr.spans...)
	}
	data, err := json.Marshal(all)
	if err != nil {
		return live, nil, nil, err
	}
	return live, r, traces, os.WriteFile(filepath.Join(b.cfg.outDir, "trace-"+b.w.name+".json"), data, 0o644)
}

// replay pushes one op through the layers stage by stage.
func (r *replayer) replay(i int, o op, tr *opTrace, live opTimes) error {
	w := r.b.w
	or := &opReplay{
		replayer: r, tr: tr, o: o,
		doc: r.b.corpus.docs[o.doc].name, storeKey: fmt.Sprintf("replay/%d", i),
	}
	start := time.Now()
	var err error
	if !w.store {
		err = or.leg(true, tr.legs[0], o.chanSeed, 0)
	} else {
		if i%storeReopenEvery == 0 {
			if err := r.resetScratch(); err != nil {
				return err
			}
		}
		before := r.scratch.Stats().Bytes
		if err = or.leg(true, tr.legs[0], o.chanSeed, thresholdF); err == nil {
			err = or.leg(false, tr.legs[1], o.chanSeed+1, 0)
		}
		r.sample("store.put_us_per_visit", us(or.storePut))
		r.sample("store.seed_us_per_visit", us(or.storeSeed))
		r.sample("store.bytes_per_visit", float64(r.scratch.Stats().Bytes-before))
	}
	if err != nil {
		return err
	}
	tr.span("replay", "", start, time.Now())
	if w.progress {
		r.sample("core.render_progress_us_per_fetch", us(or.renderProgress))
	}
	r.sample("core.wire_bytes_to_F", float64(or.bytesToF))
	r.sample("transport.unattributed_us", us(live.total-or.staged))

	// Figures beside the op: the search a user would have run to find the
	// document, and the innermost kernels.
	if o.query != "" {
		t0 := time.Now()
		r.b.engine.Search(o.query, 10)
		r.sample("search.query_us", us(time.Since(t0)))
	}
	r.micro()
	return nil
}

// leg replays one fetch, whose live counterpart saw live on the wire. first
// is false for the second fetch of a visit, which starts from what the
// store kept of the first.
func (o *opReplay) leg(first bool, live legResult, chanSeed int64, stopAtIC float64) error {
	r, w := o.replayer, o.b.w
	fount := w.codec == erasure.CodecFountain

	// planner.resolve. The live op may have built the plan (cold_query
	// always does), but by now the cache may have dropped it again: resolve
	// once untimed, then time the hit. A build is replayed on its own below.
	req := planner.Request{Doc: o.doc, Query: o.o.query}
	if w.lod != 0 {
		req.LOD = w.lod.String()
	}
	if w.notion != 0 {
		req.Notion = w.notion.String()
	}
	if _, err := r.b.planner.ResolveFrames(req); err != nil {
		return err
	}
	t0 := time.Now()
	resolved, err := r.b.planner.ResolveFrames(req)
	t1 := time.Now()
	if err != nil {
		return err
	}
	o.stage("planner.resolve", t0, t1)
	r.sample("planner.resolve_hit_us", us(t1.Sub(t0)))
	plan := resolved.Plan
	layout := plan.Layout()
	var seed uint64
	if fount {
		seed = resolved.FountainSeed(0) // the servers run with the zero salt
		layout = plan.FountainLayout(seed)
	}
	if err := o.header(req, layout); err != nil {
		return err
	}
	var cold *core.Plan
	if w.queries == queryUnique {
		// The live op missed the plan cache and every frame it sent: it
		// built this plan and cooked these frames. Rebuild here, and recook
		// below, on a private plan to time that work.
		if cold, err = o.buildCold(plan.Config()); err != nil {
			return err
		}
	}

	if first {
		// core.newreceiver: what the client builds from the header before
		// the first frame (decoders, under the fountain code).
		t0 = time.Now()
		o.rcv, err = core.NewReceiverFromLayout(layout)
		t1 = time.Now()
		if err != nil {
			return err
		}
		o.stage("core.newreceiver", t0, t1)
		r.sample("core.newreceiver_us", us(t1.Sub(t0)))
	} else {
		// store.seed: what a fresh client reads back before its first
		// round. The skim's receiver then carries on, as the seeded one
		// would.
		t0 = time.Now()
		r.scratch.Layout(o.storeKey)
		r.scratch.Generations(o.storeKey, layout.Codec)
		r.scratch.Packets(o.storeKey, layout.Codec)
		t1 = time.Now()
		o.stage("store.seed", t0, t1)
		o.storeSeed += t1.Sub(t0)
	}
	rcv := o.rcv

	// Untimed dry run on a copy of the receiver: where does this channel
	// realisation stop the stream, and how many wire bytes until F?
	dry, err := core.NewReceiverFromLayout(layout)
	if err != nil {
		return err
	}
	for _, seq := range rcv.HaveList() {
		p, _ := rcv.Packet(seq)
		if err := dry.Add(seq, p); err != nil {
			return err
		}
	}
	steps, corrupt, toF, err := r.simulate(resolved, seed, dry, chanSeed, stopAtIC)
	if err != nil {
		return err
	}
	if first {
		o.bytesToF = toF
	}
	if live.frames != len(steps) || live.corrupt != corrupt {
		r.mismatches++
	}
	r.simFrames += len(steps)
	r.simCorrupt += corrupt
	n := len(steps)
	if n == 0 {
		return nil // the store held everything; the client never sent a request
	}
	if cold != nil {
		if err := o.cookCold(cold, steps); err != nil {
			return err
		}
	}

	// framecache.frames
	fs := r.b.planner.FrameStats()
	cached := make([][]byte, n)
	t0 = time.Now()
	for k, st := range steps {
		if cached[k], err = frameOf(resolved, seed, st); err != nil {
			return err
		}
	}
	t1 = time.Now()
	o.stage("framecache.frames", t0, t1)
	if r.b.planner.FrameStats().Misses == fs.Misses {
		r.sample("framecache.frame_hit_ns", float64(t1.Sub(t0))/float64(n))
	}

	// channel.inject: the private copy and the channel's verdict, as the
	// server does for any channel but the clean one.
	delivered := cached
	if w.alpha > 0 {
		inj := newChannel(w.alpha, chanSeed)
		delivered = make([][]byte, n)
		t0 = time.Now()
		for k, st := range steps {
			delivered[k], _ = inj.Inject(append([]byte(nil), cached[k]...), st.key)
		}
		t1 = time.Now()
		o.stage("channel.inject", t0, t1)
		r.sample("channel.inject_ns", float64(t1.Sub(t0))/float64(n))
	}

	// transport.wire
	t0 = time.Now()
	if err := r.wire(delivered, fount); err != nil {
		return err
	}
	t1 = time.Now()
	o.stage("transport.wire", t0, t1)
	r.sample("transport.wire_us_per_frame", us(t1.Sub(t0))/float64(n))

	// packet.parse is measured on its own, then core.addframe runs the
	// receiver over the same frames and is charged the rest. Under the
	// fountain code AddFrame also decodes; that is the fountain.add stage,
	// timed on fresh decoders before the receiver repeats the work, while
	// the shared inverse cache is still as cold as it was for the live op.
	// The repeat is timed again afterwards (cache warm, like the receiver's
	// pass) to take it out of core.addframe.
	payloads := make([][]byte, n) // nil where the CRC failed
	t0 = time.Now()
	for k, f := range delivered {
		if fount {
			if p, err := packet.ParseFountain(f); err == nil {
				payloads[k] = p.Payload
			}
		} else if p, err := packet.Parse(f); err == nil {
			payloads[k] = p.Payload
		}
	}
	parse := time.Since(t0)
	r.sample("packet.parse_ns", float64(parse)/float64(n))
	if fount {
		t0 = time.Now()
		symbols, err := fountainAdd(layout, steps, payloads)
		t1 = time.Now()
		if err != nil {
			return err
		}
		o.stage("fountain.add", t0, t1)
		r.sample("fountain.add_ns_per_symbol", float64(t1.Sub(t0))/float64(max(symbols, 1)))
		if err := r.fountainEncode(plan, layout, steps); err != nil {
			return err
		}
	}
	t0 = time.Now()
	for _, f := range delivered {
		if _, _, err := rcv.AddFrame(f); err != nil {
			return err
		}
	}
	addFrame := time.Since(t0)
	if fount {
		warm := time.Now()
		if _, err := fountainAdd(layout, steps, payloads); err != nil {
			return err
		}
		// Two timings of one loop differ by noise; the receiver cannot
		// have spent less than the parse alone.
		addFrame = max(addFrame-time.Since(warm), parse)
	}
	o.stage("core.addframe", t0, t0.Add(addFrame))
	o.child("packet.parse", "core.addframe", t0, parse)
	r.sample("core.addframe_ns", float64(addFrame-parse)/float64(n))

	// core.render_progress: with OnProgress set the client asks for
	// InfoContent after every frame and renders after every intact one.
	if w.progress {
		prog, err := core.NewReceiverFromLayout(layout)
		if err != nil {
			return err
		}
		var d time.Duration
		begin := time.Now()
		for k, f := range delivered {
			prog.AddFrame(f)
			t0 := time.Now()
			prog.InfoContent()
			if payloads[k] != nil {
				prog.Render()
			}
			d += time.Since(t0)
		}
		o.stage("core.render_progress", begin, begin.Add(d))
		o.renderProgress += d
	}

	// erasure.decode, then the finish-time work every fetch ends with.
	if rcv.Reconstructible() && !fount {
		for g, shape := range layout.Shapes {
			coder, err := erasure.Shared(shape.M, shape.N)
			if err != nil {
				return err
			}
			rec := received(layout, rcv, g)
			t0 = time.Now()
			if _, err := coder.Decode(rec); err != nil {
				return err
			}
			t1 = time.Now()
			o.stage("erasure.decode", t0, t1)
			r.sample("erasure.decode_us_per_gen", us(t1.Sub(t0)))
			rcv.DecodedGeneration(g) // memoised: the stages below must not decode again
		}
	}
	if rcv.Reconstructible() {
		t0 = time.Now()
		if _, err := rcv.Reconstruct(); err != nil {
			return err
		}
		t1 = time.Now()
		o.stage("core.reconstruct", t0, t1)
		r.sample("core.reconstruct_us", us(t1.Sub(t0)))
	}
	t0 = time.Now()
	rcv.InfoContent()
	rcv.Render()
	t1 = time.Now()
	o.stage("core.render_final", t0, t1)
	if stopAtIC == 0 {
		r.sample("core.render_final_us", us(t1.Sub(t0)))
	}

	// store.put: drain the receiver as the client does after a round.
	if w.store {
		t0 = time.Now()
		if err := persist(r.scratch, o.storeKey, rcv); err != nil {
			return err
		}
		t1 = time.Now()
		o.stage("store.put", t0, t1)
		o.storePut += t1.Sub(t0)
	}
	return nil
}

// header replays the control exchange that precedes the frames: the
// request line out and parsed, the response with the full layout out and
// parsed. The layout lists every ranked and accrual segment, so this grows
// with the document's structure.
func (o *opReplay) header(req planner.Request, layout core.Layout) error {
	var buf bytes.Buffer
	t0 := time.Now()
	err := transport.WriteJSONLine(&buf, transport.Request{
		Op: "fetch", Doc: req.Doc, Query: req.Query, LOD: req.LOD, Notion: req.Notion, Codec: layout.Codec.String(),
	})
	if err != nil {
		return err
	}
	if _, err := transport.DecodeRequest(buf.Bytes()); err != nil {
		return err
	}
	buf.Reset()
	if err := transport.WriteJSONLine(&buf, transport.Response{OK: true, Layout: &layout, Sending: layout.N()}); err != nil {
		return err
	}
	var resp transport.Response
	if err := json.Unmarshal(buf.Bytes(), &resp); err != nil {
		return err
	}
	t1 := time.Now()
	o.stage("transport.header", t0, t1)
	o.sample("transport.header_us", us(t1.Sub(t0)))
	return nil
}

// buildCold times what a plan-cache miss costs the server: rank and
// packetise the plan, with the SC evaluation inside it. It returns the
// private plan for cookCold.
func (o *opReplay) buildCold(cfg core.Config) (*core.Plan, error) {
	sc, _ := o.b.engine.SC(o.doc)
	qv := textproc.QueryVector(o.o.query)
	t0 := time.Now()
	sc.Evaluate(qv)
	eval := time.Since(t0)
	o.sample("content.evaluate_us", us(eval))
	t0 = time.Now()
	plan, err := core.NewPlan(sc, qv, cfg)
	t1 := time.Now()
	if err != nil {
		return nil, err
	}
	o.stage("core.newplan", t0, t1)
	o.child("content.evaluate", "core.newplan", t0, eval)
	o.sample("core.newplan_us", us(t1.Sub(t0)))
	return plan, nil
}

// cookCold times what frame-cache misses cost: marshalling every frame of
// the stream from the private plan, which encodes each parity row on first
// touch. The encodes are then repeated on their own as erasure.parity_row.
func (o *opReplay) cookCold(plan *core.Plan, steps []step) error {
	t0 := time.Now()
	for _, st := range steps {
		if _, err := plan.Frame(st.key); err != nil {
			return err
		}
	}
	t1 := time.Now()
	o.stage("framecache.cook", t0, t1)

	var enc time.Duration
	rows := 0
	lo := plan.Layout()
	for g, shape := range lo.Shapes {
		coder, err := erasure.Shared(shape.M, shape.N)
		if err != nil {
			return err
		}
		off, _ := lo.CookedOffset(g)
		raw := make([][]byte, shape.M)
		for i := range raw {
			if raw[i], err = plan.CookedPayload(off + i); err != nil {
				return err
			}
		}
		t0 := time.Now()
		for _, st := range steps {
			if st.gen == g && st.row >= shape.M {
				if _, err := coder.EncodeParityRow(raw, st.row-shape.M); err != nil {
					return err
				}
				rows++
			}
		}
		enc += time.Since(t0)
	}
	if rows > 0 {
		o.child("erasure.parity_row", "framecache.cook", t0, enc)
		o.sample("erasure.parity_row_us", us(enc)/float64(rows))
	}
	return nil
}

// frameOf fetches one cooked frame the way the server's stream loops do.
func frameOf(resolved *planner.Resolved, seed uint64, st step) ([]byte, error) {
	if seed != 0 {
		return resolved.FountainFrame(seed, st.gen, st.row)
	}
	return resolved.Frame(st.key)
}

// simulate replays the transmitter's stream loops and the client's
// termination rules against the seeded channel, without a socket: it
// returns the frames the client counts, how many of them fail their CRC,
// and the wire bytes received when information content first reached
// thresholdF (zero if it already had). Two simplifications are exact for this benchmark's
// workloads: a fountain document is one generation, so no frames are in
// flight when a stopgen lands, and the Bernoulli channel corrupts but
// never drops.
func (r *replayer) simulate(resolved *planner.Resolved, seed uint64, rcv *core.Receiver, chanSeed int64, stopAtIC float64) (steps []step, corrupt, bytesToF int, err error) {
	w := r.b.w
	lo := rcv.Layout()
	inj := newChannel(w.alpha, chanSeed)
	wire := 0
	if rcv.Reconstructible() {
		return nil, 0, 0, nil // the store held everything: the client never sends a request
	}
	wantF := rcv.InfoContent() < thresholdF
	// deliver passes one frame through channel and client; it reports
	// whether the client now stops the stream.
	deliver := func(st step) (bool, error) {
		frame, err := frameOf(resolved, seed, st)
		if err != nil {
			return false, err
		}
		out, _ := inj.Inject(append([]byte(nil), frame...), st.key)
		steps = append(steps, st)
		wire += len(out)
		_, intact, err := rcv.AddFrame(out)
		if err != nil {
			return false, err
		}
		if !intact {
			corrupt++
			return false, nil
		}
		if wantF || stopAtIC > 0 {
			ic := rcv.InfoContent()
			if wantF && ic >= thresholdF {
				bytesToF, wantF = wire, false
			}
			if stopAtIC > 0 && ic >= stopAtIC {
				return true, nil
			}
		}
		return rcv.Reconstructible(), nil
	}
	for round := 0; round < 10; round++ { // the client's default MaxRounds
		if round > 0 && !w.caching {
			rcv.Reset()
		}
		// A caching client that holds anything reports it with the request;
		// the server keeps those rows, and every row of a generation
		// reported done, off the air for the whole round.
		have, done := make(map[int]bool), make(map[int]bool)
		if w.caching {
			for _, k := range rcv.HaveList() {
				have[k] = true
			}
			for _, g := range rcv.DoneGenerations() {
				done[g] = true
			}
		}
		if seed != 0 {
			m := lo.Shapes[0].M
			for row := 0; row < 4*m+64 && !done[0]; row++ { // the transmitter's overshoot cap
				key := packet.PackSeq(0, row)
				if have[key] {
					continue
				}
				if stop, err := deliver(step{0, row, key}); err != nil || stop {
					return steps, corrupt, bytesToF, err
				}
			}
			continue
		}
		for seq := 0; seq < lo.N(); seq++ {
			g, row, _ := lo.CookedGeneration(seq)
			if have[seq] || done[g] {
				continue
			}
			if stop, err := deliver(step{g, row, seq}); err != nil || stop {
				return steps, corrupt, bytesToF, err
			}
		}
	}
	return steps, corrupt, bytesToF, fmt.Errorf("stream of %d frames never terminated", len(steps))
}

// wire writes the frames into one end of the loopback pair and reads them
// back from the other with the transport's own framing. flushEach is the
// fountain transmitter's habit: its open-loop stream flushes every frame so
// the decoder's feedback is never stale, one write per frame.
func (r *replayer) wire(frames [][]byte, flushEach bool) error {
	done := make(chan error, 1)
	go func() {
		bw := bufio.NewWriter(r.wireW)
		for _, f := range frames {
			err := transport.WriteFrame(bw, f)
			if err == nil && flushEach {
				err = bw.Flush()
			}
			if err != nil {
				done <- err
				return
			}
		}
		done <- bw.Flush()
	}()
	br := bufio.NewReader(r.wireR)
	var buf []byte
	var rerr error
	for range frames {
		if buf, rerr = transport.ReadFrameInto(br, buf); rerr != nil {
			break
		}
	}
	if err := <-done; err != nil {
		return err
	}
	return rerr
}

// fountainAdd feeds the intact symbols of a one-generation stream to a
// fresh decoder and returns how many there were.
func fountainAdd(lo core.Layout, steps []step, payloads [][]byte) (symbols int, err error) {
	weights, err := lo.FountainWeights(0)
	if err != nil {
		return 0, err
	}
	dec, err := fountain.NewDecoder(0, lo.Seed, lo.Shapes[0].M, lo.PacketSize, weights)
	if err != nil {
		return 0, err
	}
	for k, st := range steps {
		if payloads[k] != nil {
			if _, err := dec.Add(st.row, payloads[k]); err != nil {
				return 0, err
			}
			symbols++
		}
	}
	return symbols, nil
}

// fountainEncode regenerates the stream's symbols with a fresh encoder. The
// live op took its frames from the cache, so this is a figure of its own
// and no stage of the op.
func (r *replayer) fountainEncode(plan *core.Plan, lo core.Layout, steps []step) error {
	weights, err := lo.FountainWeights(0)
	if err != nil {
		return err
	}
	src := make([][]byte, lo.Shapes[0].M)
	for i := range src {
		if src[i], err = plan.CookedPayload(i); err != nil {
			return err
		}
	}
	enc, err := fountain.NewEncoder(0, lo.Seed, src, weights)
	if err != nil {
		return err
	}
	var buf []byte
	t0 := time.Now()
	for _, st := range steps {
		buf = enc.AppendPayload(buf[:0], st.row)
	}
	r.sample("fountain.encode_ns_per_symbol", float64(time.Since(t0))/float64(len(steps)))
	return nil
}

// received lists generation g's intact packets in row order, the input
// Coder.Decode gets from the receiver.
func received(lo core.Layout, rcv *core.Receiver, g int) []erasure.Received {
	var out []erasure.Received
	for _, seq := range rcv.HaveList() {
		if gen, row, _ := lo.CookedGeneration(seq); gen == g {
			p, _ := rcv.Packet(seq)
			out = append(out, erasure.Received{Index: row, Data: p})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// persist writes a receiver's state through the store's public API in the
// order the client's own drain uses: layout, decoded generations, then the
// loose packets of generations still in flight.
func persist(st *store.Store, key string, rcv *core.Receiver) error {
	lo := rcv.Layout()
	if err := st.PutLayout(key, lo); err != nil {
		return err
	}
	for g := range lo.Shapes {
		if !rcv.GenerationReconstructible(g) || st.HasGeneration(key, lo.Codec, g) {
			continue
		}
		raw, err := rcv.DecodedGeneration(g)
		if err != nil {
			return err
		}
		if err := st.PutGeneration(key, lo.Codec, g, raw); err != nil {
			return err
		}
	}
	for _, seq := range rcv.HaveList() {
		g, row, err := lo.CookedGeneration(seq)
		if err != nil || rcv.GenerationReconstructible(g) || st.HasPacket(key, lo.Codec, g, row) {
			continue
		}
		p, _ := rcv.Packet(seq)
		if err := st.PutPacket(key, lo.Codec, g, row, p); err != nil {
			return err
		}
	}
	return nil
}

// microBuf is 64 frames of the paper's geometry: 4 bytes of header and
// CRC before 256 of payload.
var microBuf = make([]byte, 64*260)

// micro times the innermost kernels at the packet-size regime the fetch
// path calls them in: one sample per op, so their medians span the same
// stretch of host time as the stages.
func (r *replayer) micro() {
	dst := make([]byte, 256)
	t0 := time.Now()
	for i := 0; i < 64; i++ {
		gf256.MulAddSlice(byte(i+2), dst, microBuf[i*260+4:(i+1)*260])
	}
	d := time.Since(t0)
	r.sample("gf256.muladd256_MBps", float64(64*256)/(1<<20)/d.Seconds())
	var sum uint16
	t0 = time.Now()
	for i := 0; i < 64; i++ {
		sum ^= crc.Checksum(microBuf[i*260 : (i+1)*260])
	}
	d = time.Since(t0)
	microBuf[0] = byte(sum)
	r.sample("crc.checksum260_ns", float64(d)/64)
}
