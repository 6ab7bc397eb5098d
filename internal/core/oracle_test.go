package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"mobweb/internal/document"
	"mobweb/internal/erasure"
)

// This file keeps the receiver's previous progress accounting — a fresh
// per-call scan of every raw packet, then of every unit — as the oracle
// the availability index is checked against. It is deliberately the old
// code, not a rewrite: what must hold is that the index answers exactly
// what the scans answered, after every packet.

// rawAvailable computes, per raw packet, whether its bytes are usable:
// its whole generation is reconstructible, or its clear-text row arrived.
func (r *Receiver) rawAvailable() []bool {
	avail := make([]bool, r.layout.M())
	rawOff := 0
	for g, shape := range r.layout.Shapes {
		all := r.GenerationReconstructible(g)
		for i := 0; i < shape.M; i++ {
			avail[rawOff+i] = all || r.gens[g].Symbol(i) != nil
		}
		rawOff += shape.M
	}
	return avail
}

// segAvailable reports whether every raw packet covering the segment is
// available.
func segAvailable(seg SegmentMeta, avail []bool, sp int) bool {
	if seg.Length == 0 {
		return true
	}
	first := seg.PermutedOff / sp
	last := (seg.PermutedOff + seg.Length - 1) / sp
	for pkt := first; pkt <= last; pkt++ {
		if pkt >= len(avail) || !avail[pkt] {
			return false
		}
	}
	return true
}

func (r *Receiver) oracleInfoContent() float64 {
	avail := r.rawAvailable()
	sp := r.layout.PacketSize
	total := 0.0
	for _, seg := range r.layout.Accrual {
		if segAvailable(seg, avail, sp) {
			total += seg.Score
		}
	}
	return total
}

func (r *Receiver) oracleAvailableUnits() []SegmentMeta {
	avail := r.rawAvailable()
	sp := r.layout.PacketSize
	var out []SegmentMeta
	for _, seg := range r.layout.Accrual {
		if segAvailable(seg, avail, sp) {
			out = append(out, seg)
		}
	}
	return out
}

func (r *Receiver) oracleUnitText(seg SegmentMeta) (string, bool) {
	avail := r.rawAvailable()
	sp := r.layout.PacketSize
	if !segAvailable(seg, avail, sp) {
		return "", false
	}
	buf := make([]byte, seg.Length)
	for off := 0; off < seg.Length; {
		pos := seg.PermutedOff + off
		rawIdx := pos / sp
		within := pos % sp
		chunk := sp - within
		if chunk > seg.Length-off {
			chunk = seg.Length - off
		}
		data := r.oracleRawBytes(rawIdx)
		if data == nil {
			return "", false
		}
		copy(buf[off:off+chunk], data[within:within+chunk])
		off += chunk
	}
	return string(buf), true
}

// oracleRawBytes reads raw packet rawIdx through its generation's
// decoder, as the receiver's text path did before texts became views of
// its body buffer; nil while the packet is unreadable.
func (r *Receiver) oracleRawBytes(rawIdx int) []byte {
	for g, shape := range r.layout.Shapes {
		if rawIdx >= shape.M {
			rawIdx -= shape.M
			continue
		}
		was := r.gens[g].Decoded()
		sym := r.gens[g].Symbol(rawIdx)
		r.noteDecode(g, was)
		return sym
	}
	return nil
}

func (r *Receiver) oracleRender() []RenderedUnit {
	var out []RenderedUnit
	for _, seg := range r.oracleAvailableUnits() {
		text, ok := r.oracleUnitText(seg)
		if !ok {
			continue
		}
		out = append(out, RenderedUnit{Segment: seg, Text: text})
	}
	return out
}

// oracleDoc builds a document whose paragraphs have distinct text and
// lengths that straddle packet and generation boundaries at the packet
// size the oracle table uses.
func oracleDoc(t testing.TB) (*document.Document, map[int]float64) {
	t.Helper()
	b := document.NewBuilder()
	n := 0
	for s := 0; s < 4; s++ {
		b.Open(document.LODSection, "", "")
		for p := 0; p < 6; p++ {
			b.Paragraph(strings.Repeat(string(rune('a'+n%26)), 11+53*(n%7)+n))
			n++
		}
		b.Close()
	}
	doc, err := b.Build("oracle-doc", "Oracle")
	if err != nil {
		t.Fatal(err)
	}
	scores := make(map[int]float64)
	for i, p := range doc.Paragraphs() {
		scores[p.ID] = float64((i*7)%11 + 1)
	}
	return doc, scores
}

// withEmptyUnit adds a zero-length accounting unit mid-stream: available
// from the start, as segAvailable has always said.
func withEmptyUnit(l Layout) Layout {
	mid := len(l.Accrual) / 2
	empty := SegmentMeta{Label: "empty", Score: 1e-7, PermutedOff: l.Accrual[mid].PermutedOff, OrigOff: l.Accrual[mid].OrigOff}
	accrual := append([]SegmentMeta(nil), l.Accrual[:mid]...)
	accrual = append(accrual, empty)
	l.Accrual = append(accrual, l.Accrual[mid:]...)
	return l
}

// handedOut keeps every text a receiver handed out, with a copy of what
// it read then.
type handedOut []struct {
	unit RenderedUnit
	read string
}

func (h *handedOut) add(units ...RenderedUnit) {
	for _, u := range units {
		*h = append(*h, struct {
			unit RenderedUnit
			read string
		}{u, strings.Clone(u.Text)})
	}
}

// check fails when a text handed out no longer reads what it read then.
func (h handedOut) check(t *testing.T, when string) {
	t.Helper()
	for _, k := range h {
		if k.unit.Text != k.read {
			t.Fatalf("%s: unit %s handed out as %q now reads %q", when, k.unit.Segment.Label, k.read, k.unit.Text)
		}
	}
}

// checkAgainstOracle compares every progress accessor with the scans,
// and keeps every text Render and UnitText handed out.
func checkAgainstOracle(t *testing.T, r *Receiver, when string, kept *handedOut) {
	t.Helper()
	if got, want := r.InfoContent(), r.oracleInfoContent(); got != want {
		t.Fatalf("%s: InfoContent = %v, the scan says %v (diff %g)", when, got, want, got-want)
	}
	if got, want := r.AvailableUnits(), r.oracleAvailableUnits(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: AvailableUnits has %d units, the scan %d", when, len(got), len(want))
	}
	rendered := r.Render()
	if want := r.oracleRender(); !reflect.DeepEqual(rendered, want) {
		t.Fatalf("%s: Render has %d units, the scan %d", when, len(rendered), len(want))
	}
	kept.add(rendered...)
	for _, seg := range r.layout.Accrual {
		got, gotOK := r.UnitText(seg)
		want, wantOK := r.oracleUnitText(seg)
		if got != want || gotOK != wantOK {
			t.Fatalf("%s: UnitText(%s) = (%d bytes, %v), the scan (%d bytes, %v)", when, seg.Label, len(got), gotOK, len(want), wantOK)
		}
		if gotOK {
			kept.add(RenderedUnit{Segment: seg, Text: got})
		}
	}
}

// TestAvailabilityIndexMatchesScan is the oracle table: after every Add,
// under both codecs, three arrival orders, one and several generations,
// and each event that rebuilds or replaces the index, the index-backed
// accessors equal the per-call scans — InfoContent bit for bit — and the
// NewUnits drains add up to the final Render with every unit once.
//
// Texts are views of the receiver's body buffer, so every text handed out
// along the way — by Render, NewUnits and UnitText, before a Reset, a
// Rebase or a seeded generation, and before the late sources of decoded
// generations and the late duplicates that close the stream — is kept:
// right after the event and at the end each must still read what it read
// when handed out, and at the end that is the scan's text.
func TestAvailabilityIndexMatchesScan(t *testing.T) {
	const sp, seed = 96, 41
	doc, scores := oracleDoc(t)
	type pkt struct{ g, k int }
	for _, codec := range []string{"vandermonde", "fountain"} {
		for _, maxGen := range []int{0, 12} {
			for _, arrival := range []string{"in-order", "shuffled", "parity-first"} {
				for _, event := range []string{"plain", "reset", "rebase", "seed"} {
					name := fmt.Sprintf("%s/maxgen%d/%s/%s", codec, maxGen, arrival, event)
					t.Run(name, func(t *testing.T) {
						cfg := Config{PacketSize: sp, LOD: document.LODParagraph, Gamma: 1.5, MaxGeneration: maxGen}
						plan, err := NewPlanWithScores(doc, scores, cfg)
						if err != nil {
							t.Fatal(err)
						}
						cfg.Gamma = 2
						wider, err := NewPlanWithScores(doc, scores, cfg)
						if err != nil {
							t.Fatal(err)
						}
						layoutOf := func(p *Plan) Layout {
							if codec == "fountain" {
								return withEmptyUnit(p.FountainLayout(seed))
							}
							return withEmptyUnit(p.Layout())
						}
						frame := func(p *Plan, at pkt) []byte {
							var f []byte
							var err error
							if codec == "fountain" {
								f, err = p.FountainFrame(seed, at.g, at.k)
							} else {
								seq, _ := p.Layout().WireSeq(at.g, at.k)
								f, err = p.Frame(seq)
							}
							if err != nil {
								t.Fatal(err)
							}
							return f
						}
						layout := layoutOf(plan)
						if multi := len(layout.Shapes) > 1; multi != (maxGen != 0) {
							t.Fatalf("%d generations with MaxGeneration %d", len(layout.Shapes), maxGen)
						}

						// The stream: every cooked row of the fixed-rate plan, or
						// twice M symbols a generation of the rateless one (ample
						// for the Gaussian fallback to finish).
						var order []pkt
						for g, shape := range plan.Layout().Shapes {
							count := shape.N
							if codec == "fountain" {
								count = 2*shape.M + 8
							}
							rows := make([]pkt, count)
							for k := range rows {
								rows[k] = pkt{g, k}
							}
							if arrival == "parity-first" {
								// Redundancy ahead of clear text; for the rateless
								// stream, which has no clear text, late symbols first.
								rows = append(rows[shape.M:], rows[:shape.M]...)
							}
							order = append(order, rows...)
						}
						if arrival == "shuffled" {
							rand.New(rand.NewSource(seed)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
						}

						rcv, err := NewReceiverFromLayout(layout)
						if err != nil {
							t.Fatal(err)
						}
						var kept handedOut
						checkAgainstOracle(t, rcv, "empty", &kept)
						var drained []RenderedUnit
						drain := func() {
							units := rcv.NewUnits()
							drained = append(drained, units...)
							kept.add(units...)
						}
						drain()
						if len(drained) != 1 || drained[0].Segment.Label != "empty" {
							t.Fatalf("before any packet NewUnits = %v, want the zero-length unit", drained)
						}
						cur := plan
						feed := func(at pkt, when string) {
							t.Helper()
							if _, intact, err := rcv.AddFrame(frame(cur, at)); err != nil || !intact {
								t.Fatalf("%s: intact=%v, %v", when, intact, err)
							}
							checkAgainstOracle(t, rcv, when, &kept)
							drain()
						}
						eventAt := len(order) / 3
						for i, at := range order {
							if i == eventAt {
								switch event {
								case "reset":
									rcv.Reset()
									drained = nil
								case "rebase":
									cur = wider
									if rcv, err = rcv.Rebase(layoutOf(wider)); err != nil {
										t.Fatal(err)
									}
									drained = nil
								case "seed":
									// A previous process life decoded the last generation.
									g := len(layout.Shapes) - 1
									donor, err := NewReceiverFromLayout(layout)
									if err != nil {
										t.Fatal(err)
									}
									for k := 0; !donor.GenerationReconstructible(g); k++ {
										if _, _, err := donor.AddFrame(frame(plan, pkt{g, k})); err != nil {
											t.Fatal(err)
										}
									}
									raw, err := donor.DecodedGeneration(g)
									if err != nil {
										t.Fatal(err)
									}
									if err := rcv.SeedDecodedGeneration(g, raw); err != nil {
										t.Fatal(err)
									}
								}
								kept.check(t, "after "+event)
								checkAgainstOracle(t, rcv, "after "+event, &kept)
								drain()
							}
							feed(at, fmt.Sprintf("packet %d (gen %d row %d)", i, at.g, at.k))
						}
						if event == "reset" {
							// NoCaching: the round after the reset sends it all again.
							for i, at := range order[:eventAt] {
								feed(at, fmt.Sprintf("refetched packet %d", i))
							}
						}
						// Late duplicates: every third packet once more, sources of
						// generations decoded long since among them.
						for i := 0; i < len(order); i += 3 {
							feed(order[i], fmt.Sprintf("late duplicate %d", i))
						}

						if !rcv.Reconstructible() || rcv.InfoContent() < 1-1e-9 {
							t.Fatalf("stream did not complete the document: %v", rcv)
						}
						final := rcv.Render()
						if len(final) != len(layout.Accrual) {
							t.Fatalf("final Render has %d units, layout %d", len(final), len(layout.Accrual))
						}
						// Drains are in transmission order within a call, not
						// across calls: compare as a set with multiplicity.
						if len(drained) != len(final) {
							t.Fatalf("NewUnits handed out %d units in all, Render has %d", len(drained), len(final))
						}
						want := make(map[SegmentMeta]string, len(final))
						for _, u := range final {
							want[u.Segment] = u.Text
						}
						for _, u := range drained {
							text, ok := want[u.Segment]
							if !ok || text != u.Text {
								t.Fatalf("unit %s drained twice or with the wrong text", u.Segment.Label)
							}
							delete(want, u.Segment)
						}
						if more := rcv.NewUnits(); more != nil {
							t.Fatalf("NewUnits after the last drain = %d units", len(more))
						}
						kept.check(t, "at the end")
						for _, k := range kept {
							if want, _ := rcv.oracleUnitText(k.unit.Segment); k.read != want {
								t.Fatalf("unit %s was handed out as %q, the scan's text is %q", k.unit.Segment.Label, k.read, want)
							}
						}
					})
				}
			}
		}
	}
}

// TestSourcesAfterCompletion: Add flags a source as it lands and a
// generation's other raw packets once it completes, so the sources that
// arrive after their generation completed must neither be missed nor
// credit their units twice. Each generation completes from repairs alone;
// its sources follow, after a progress question that decoded it, after
// one that only folded it, or with no question between.
func TestSourcesAfterCompletion(t *testing.T) {
	const sp, seed = 96, 41
	doc, scores := oracleDoc(t)
	for _, codec := range []string{"vandermonde", "fountain"} {
		for _, between := range []string{"render", "infocontent", "silent"} {
			t.Run(codec+"/"+between, func(t *testing.T) {
				// γ = 2: a fixed-rate generation has M repairs, enough to
				// complete it without a source.
				plan, err := NewPlanWithScores(doc, scores, Config{PacketSize: sp, LOD: document.LODParagraph, Gamma: 2, MaxGeneration: 12})
				if err != nil {
					t.Fatal(err)
				}
				layout := plan.Layout()
				frame := func(g, k int) []byte {
					var f []byte
					var err error
					if codec == "fountain" {
						f, err = plan.FountainFrame(seed, g, k)
					} else {
						wire, _ := layout.WireSeq(g, k)
						f, err = plan.Frame(wire)
					}
					if err != nil {
						t.Fatal(err)
					}
					return f
				}
				if codec == "fountain" {
					layout = plan.FountainLayout(seed)
				}
				rcv, err := NewReceiverFromLayout(layout)
				if err != nil {
					t.Fatal(err)
				}
				var kept handedOut
				for g, shape := range layout.Shapes {
					for k := shape.M; !rcv.GenerationReconstructible(g); k++ {
						if k == shape.M+4*shape.M {
							t.Fatalf("generation %d did not complete from %d repairs", g, 4*shape.M)
						}
						if _, _, err := rcv.AddFrame(frame(g, k)); err != nil {
							t.Fatal(err)
						}
					}
					switch between {
					case "render":
						kept.add(rcv.Render()...)
					case "infocontent":
						rcv.InfoContent()
					}
					for k := 0; k < shape.M; k++ {
						if _, intact, err := rcv.AddFrame(frame(g, k)); err != nil || !intact {
							t.Fatalf("source %d of generation %d: intact=%v, %v", k, g, intact, err)
						}
						if between != "silent" {
							checkAgainstOracle(t, rcv, fmt.Sprintf("source %d of completed generation %d", k, g), &kept)
						}
					}
					checkAgainstOracle(t, rcv, fmt.Sprintf("generation %d and its sources", g), &kept)
				}
				if !rcv.Reconstructible() || rcv.InfoContent() != rcv.oracleInfoContent() || rcv.InfoContent() < 1-1e-9 {
					t.Fatalf("stream did not complete the document: %v", rcv)
				}
				for s, n := range rcv.avail.missing {
					if n != 0 {
						t.Fatalf("unit %d still misses %d raw packets in a complete document", s, n)
					}
				}
				kept.check(t, "at the end")
			})
		}
	}
}

// TestNewUnitsTransmissionOrder: within one drain, units come in Accrual
// order whatever order their packets completed them in.
func TestNewUnitsTransmissionOrder(t *testing.T) {
	doc, scores := oracleDoc(t)
	plan, err := NewPlanWithScores(doc, scores, Config{PacketSize: 96, LOD: document.LODParagraph})
	if err != nil {
		t.Fatal(err)
	}
	rcv, err := NewReceiver(plan)
	if err != nil {
		t.Fatal(err)
	}
	for seq := plan.M() - 1; seq >= 0; seq-- {
		frame, err := plan.Frame(seq)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := rcv.AddFrame(frame); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := rcv.NewUnits(), rcv.Render(); !reflect.DeepEqual(got, want) {
		t.Fatalf("one drain of a complete document has %d units, Render %d, or another order", len(got), len(want))
	}
}

// TestProgressAllocations pins what a frame costs the progress path:
// nothing, whether corrupt or intact. An intact frame that completes no
// unit — a clear row, a parity row and a fountain repair alike, the last
// two while their generation is still short of rank — copies its payload
// into its slot of the body buffer (a clear row) or the current repair
// block, and sets a held flag or joins the held repairs; the repair blocks
// and the lists of held repairs are allocated once for many frames, below
// one allocation a frame.
func TestProgressAllocations(t *testing.T) {
	doc, scores := paperShapedDoc(t)
	// 64-byte packets under 512-byte paragraphs: seven clear rows in eight
	// complete no unit.
	plan, err := NewPlanWithScores(doc, scores, Config{PacketSize: 64, LOD: document.LODParagraph, MaxGeneration: 40})
	if err != nil {
		t.Fatal(err)
	}
	rcv, err := NewReceiver(plan)
	if err != nil {
		t.Fatal(err)
	}
	rcv.NewUnits()
	first, err := plan.Frame(0)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), first...)
	corrupt[len(corrupt)-1] ^= 0xFF
	var sink float64
	if n := testing.AllocsPerRun(100, func() {
		if _, intact, err := rcv.AddFrame(corrupt); intact || err != nil {
			t.Fatalf("corrupt frame: intact=%v, %v", intact, err)
		}
		sink += rcv.InfoContent()
	}); n != 0 {
		t.Errorf("corrupt frame + InfoContent allocates %v times, want 0", n)
	}

	// Dry-run the clear rows in order on a second receiver to find the
	// frames that complete nothing.
	dry, err := NewReceiver(plan)
	if err != nil {
		t.Fatal(err)
	}
	dry.NewUnits()
	var quiet [][]byte
	for seq := 0; seq < plan.M(); seq++ {
		if !plan.Layout().IsClear(seq) {
			continue
		}
		frame, err := plan.Frame(seq)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := dry.AddFrame(frame); err != nil {
			t.Fatal(err)
		}
		if dry.NewUnits() == nil {
			quiet = append(quiet, frame)
		}
	}
	const runs = 100
	if len(quiet) < runs+1 {
		t.Fatalf("only %d frames complete no unit; the shape no longer tests anything", len(quiet))
	}
	next := 0
	if n := testing.AllocsPerRun(runs, func() {
		if _, intact, err := rcv.AddFrame(quiet[next]); !intact || err != nil {
			t.Fatalf("quiet frame %d: intact=%v, %v", next, intact, err)
		}
		next++
		sink += rcv.InfoContent()
		if rcv.NewUnits() != nil {
			t.Fatalf("quiet frame %d completed a unit", next-1)
		}
	}); n != 0 {
		t.Errorf("intact frame completing no unit allocates %v times, want 0", n)
	}

	const seed = 5
	for _, tc := range []struct {
		name   string
		layout Layout
		// frame returns generation g's k-th repair frame.
		frame func(g, k int) ([]byte, error)
	}{
		{"parity", plan.Layout(), func(g, k int) ([]byte, error) {
			seq, _ := plan.Layout().WireSeq(g, plan.Layout().Shapes[g].M+k)
			return plan.Frame(seq)
		}},
		{"fountain repair", plan.FountainLayout(seed), func(g, k int) ([]byte, error) {
			return plan.FountainFrame(seed, g, plan.Layout().Shapes[g].M+k)
		}},
	} {
		rcv, err := NewReceiverFromLayout(tc.layout)
		if err != nil {
			t.Fatal(err)
		}
		rcv.NewUnits()
		var repairs [][]byte
		for g, shape := range tc.layout.Shapes {
			// Short of rank: fewer than M repairs, and no more than the
			// fixed-rate code has.
			count := shape.M - 1
			if tc.layout.Codec == erasure.CodecVandermonde {
				count = min(count, shape.N-shape.M)
			}
			for k := 0; k < count; k++ {
				frame, err := tc.frame(g, k)
				if err != nil {
					t.Fatal(err)
				}
				repairs = append(repairs, frame)
			}
		}
		next := 0
		if n := testing.AllocsPerRun(len(repairs)-1, func() {
			if _, intact, err := rcv.AddFrame(repairs[next]); !intact || err != nil {
				t.Fatalf("%s frame %d: intact=%v, %v", tc.name, next, intact, err)
			}
			next++
			sink += rcv.InfoContent()
			if rcv.NewUnits() != nil || rcv.Reconstructible() {
				t.Fatalf("%s frame %d completed something", tc.name, next-1)
			}
		}); n != 0 {
			t.Errorf("%s frame completing no unit allocates %v times, want 0", tc.name, n)
		}
	}
	_ = sink
}
