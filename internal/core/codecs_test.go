package core

import (
	"bytes"
	"sort"
	"testing"

	"mobweb/internal/packet"
)

// TestReceiverBothCodecs walks one receiver life — partial fetch, frame
// addressing, Rebase, store drain and reseed, Reset — under each codec
// through nothing but the codec-agnostic surface: frames in, wire
// sequence numbers and generations out. What must hold is the same for
// both; only the frame generator differs.
func TestReceiverBothCodecs(t *testing.T) {
	doc, scores := paperShapedDoc(t)
	plan, err := NewPlanWithScores(doc, scores, Config{MaxGeneration: 8})
	if err != nil {
		t.Fatal(err)
	}
	const seed = 77
	for _, tc := range []struct {
		name   string
		layout Layout
		// frame returns generation g's k-th frame in stream order.
		frame func(g, k int) ([]byte, error)
	}{
		{"vandermonde", plan.Layout(), func(g, k int) ([]byte, error) {
			seq, _ := plan.Layout().WireSeq(g, k)
			return plan.Frame(seq)
		}},
		{"fountain", plan.FountainLayout(seed), func(g, k int) ([]byte, error) {
			return plan.FountainFrame(seed, g, k)
		}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			layout := tc.layout
			rcv, err := NewReceiverFromLayout(layout)
			if err != nil {
				t.Fatal(err)
			}
			// feed streams generation g until it is reconstructible.
			feed := func(r *Receiver, g int) {
				t.Helper()
				for k := 0; !r.GenerationReconstructible(g); k++ {
					frame, err := tc.frame(g, k)
					if err != nil {
						t.Fatal(err)
					}
					seq, intact, err := r.AddFrame(frame)
					if err != nil || !intact {
						t.Fatalf("gen %d frame %d: intact=%v, %v", g, k, intact, err)
					}
					if want, ok := layout.WireSeq(g, k); !ok || seq != want {
						t.Fatalf("gen %d frame %d came back as seq %d, WireSeq says %d (%v)", g, k, seq, want, ok)
					}
					if gg, kk, ok := layout.SplitSeq(seq); !ok || gg != g || kk != k {
						t.Fatalf("SplitSeq(%d) = (%d, %d, %v), want (%d, %d)", seq, gg, kk, ok, g, k)
					}
					if !r.Held(seq) {
						t.Fatalf("seq %d not held after AddFrame", seq)
					}
				}
			}

			// Half a fetch: generation 0 only. Its units render, the
			// document does not reconstruct, and Have/DoneGens say so.
			feed(rcv, 0)
			if rcv.Reconstructible() {
				t.Fatal("one generation made the document reconstructible")
			}
			if done := rcv.DoneGenerations(); len(done) != 1 || done[0] != 0 {
				t.Fatalf("DoneGenerations = %v, want [0]", done)
			}
			ic := rcv.InfoContent()
			if ic <= 0 || ic >= 1 || len(rcv.Render()) == 0 {
				t.Fatalf("after generation 0: IC %v, %d units rendered", ic, len(rcv.Render()))
			}
			held := rcv.IntactCount()
			if have := rcv.HaveList(); len(have) != held {
				t.Fatalf("HaveList has %d entries, %d packets held", len(have), held)
			}
			dup, _ := rcv.Packet(rcv.HaveList()[0])
			if err := rcv.Add(rcv.HaveList()[0], dup); err != nil || rcv.IntactCount() != held {
				t.Fatalf("duplicate Add: %v, held %d → %d", err, held, rcv.IntactCount())
			}
			if err := rcv.Add(-1, dup); err == nil {
				t.Fatal("negative seq accepted")
			}
			if _, ok := layout.WireSeq(len(layout.Shapes), 0); ok {
				t.Fatal("WireSeq placed a packet past the last generation")
			}
			if err := rcv.Add(packet.PackSeq(len(layout.Shapes), 0), dup); err == nil {
				t.Fatal("seq past the last generation accepted")
			}

			// Rebase onto the same geometry keeps every packet and all
			// progress; onto a different document it refuses.
			rebased, err := rcv.Rebase(layout)
			if err != nil {
				t.Fatal(err)
			}
			if rebased.IntactCount() != held || rebased.InfoContent() != ic || !rebased.GenerationReconstructible(0) {
				t.Fatalf("rebase lost state: held %d → %d, IC %v → %v", held, rebased.IntactCount(), ic, rebased.InfoContent())
			}
			other := layout
			other.BodySize--
			if _, err := rcv.Rebase(other); err == nil {
				t.Fatal("rebase onto a different body size accepted")
			}

			// Drain to a store and reseed a fresh receiver: the decoded
			// generation comes back done, and finishing the rest
			// reconstructs the document byte for byte.
			raw, err := rcv.DecodedGeneration(0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rcv.DecodedGeneration(1); err == nil {
				t.Fatal("undecoded generation drained")
			}
			fresh, err := NewReceiverFromLayout(layout)
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.SeedDecodedGeneration(0, raw); err != nil {
				t.Fatal(err)
			}
			if !fresh.GenerationReconstructible(0) || fresh.InfoContent() != ic {
				t.Fatalf("seeded receiver: gen 0 done=%v, IC %v want %v", fresh.GenerationReconstructible(0), fresh.InfoContent(), ic)
			}
			for g := 1; g < len(layout.Shapes); g++ {
				feed(fresh, g)
			}
			body, err := fresh.Reconstruct()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(body, doc.Body()) {
				t.Fatal("seeded + fetched reconstruction differs from the document")
			}

			// Reset is NoCaching: nothing held, nothing done, nothing
			// rendered — and the receiver works again from scratch.
			fresh.Reset()
			if fresh.IntactCount() != 0 || len(fresh.DoneGenerations()) != 0 || fresh.InfoContent() != 0 {
				t.Fatalf("after Reset: held %d, done %v, IC %v", fresh.IntactCount(), fresh.DoneGenerations(), fresh.InfoContent())
			}
			feed(fresh, 0)
			if fresh.InfoContent() != ic {
				t.Fatalf("refetched generation 0 gives IC %v, want %v", fresh.InfoContent(), ic)
			}
		})
	}
}

// TestHaveListAscending: the Have list goes on the wire, so it must not
// carry the held set's map order. Packets arrive last seq first, and the
// list must come back ascending all the same.
func TestHaveListAscending(t *testing.T) {
	doc, scores := paperShapedDoc(t)
	plan, err := NewPlanWithScores(doc, scores, Config{MaxGeneration: 8})
	if err != nil {
		t.Fatal(err)
	}
	rcv, err := NewReceiverFromLayout(plan.Layout())
	if err != nil {
		t.Fatal(err)
	}
	for seq := plan.N() - 1; seq >= 0; seq -= 2 {
		frame, err := plan.Frame(seq)
		if err != nil {
			t.Fatal(err)
		}
		if _, intact, err := rcv.AddFrame(frame); err != nil || !intact {
			t.Fatalf("seq %d: intact=%v, %v", seq, intact, err)
		}
	}
	have := rcv.HaveList()
	if len(have) != rcv.IntactCount() || len(have) < 16 {
		t.Fatalf("HaveList has %d entries, %d packets held", len(have), rcv.IntactCount())
	}
	if !sort.IntsAreSorted(have) {
		t.Fatalf("HaveList is not ascending: %v", have)
	}
}
