package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"mobweb/internal/fountain"
	"mobweb/internal/packet"
)

// puritySeeds are the fountain stream seeds the purity tests cook under.
var puritySeeds = []uint64{1, 0x0dd5eed}

// purityReference is what a plan must serve, computed without it: each
// generation's full dispersal encode (Coder.Encode) for the fixed-rate
// rows and a fresh fountain.Encoder per generation and seed for the
// rateless ones, both over the plan's raw packets.
type purityReference struct {
	cooked   [][]byte          // by global cooked seq
	frames   [][]byte          // by global cooked seq
	fountain map[string][]byte // "seed/gen/seq" → wire frame
	fseqs    int               // fountain seqs checked per generation
}

func newPurityReference(t *testing.T, plan *Plan) purityReference {
	t.Helper()
	ref := purityReference{fountain: make(map[string][]byte), fseqs: 3 * plan.Config().MaxGeneration}
	for g, gen := range plan.gens {
		cooked, err := gen.coder.Encode(gen.raw)
		if err != nil {
			t.Fatal(err)
		}
		for i, payload := range cooked {
			frame, err := packet.Packet{Seq: gen.cookedOff + i, Payload: payload}.AppendMarshal(nil)
			if err != nil {
				t.Fatal(err)
			}
			ref.cooked = append(ref.cooked, payload)
			ref.frames = append(ref.frames, frame)
		}
		for _, seed := range puritySeeds {
			enc, err := fountain.NewEncoder(g, seed, gen.raw, nil)
			if err != nil {
				t.Fatal(err)
			}
			for seq := 0; seq < ref.fseqs; seq++ {
				frame, err := packet.FountainPacket{Gen: g, Seq: seq, Payload: enc.Payload(seq)}.Marshal()
				if err != nil {
					t.Fatal(err)
				}
				ref.fountain[fmt.Sprintf("%d/%d/%d", seed, g, seq)] = frame
			}
		}
	}
	if len(ref.cooked) != plan.N() {
		t.Fatalf("reference has %d cooked packets, plan %d", len(ref.cooked), plan.N())
	}
	return ref
}

// check asks the plan for every cooked payload, frame and fountain frame
// the reference holds and reports the first that differs.
func (ref purityReference) check(plan *Plan) error {
	for seq := range ref.cooked {
		payload, err := plan.CookedPayload(seq)
		if err != nil {
			return err
		}
		if !bytes.Equal(payload, ref.cooked[seq]) {
			return fmt.Errorf("CookedPayload(%d) differs from Coder.Encode", seq)
		}
		frame, err := plan.Frame(seq)
		if err != nil {
			return err
		}
		if !bytes.Equal(frame, ref.frames[seq]) {
			return fmt.Errorf("Frame(%d) differs from the reference frame", seq)
		}
	}
	for _, seed := range puritySeeds {
		for g := 0; g < plan.Generations(); g++ {
			for seq := 0; seq < ref.fseqs; seq++ {
				frame, err := plan.FountainFrame(seed, g, seq)
				if err != nil {
					return err
				}
				if !bytes.Equal(frame, ref.fountain[fmt.Sprintf("%d/%d/%d", seed, g, seq)]) {
					return fmt.Errorf("FountainFrame(%#x, %d, %d) differs from fountain.Encoder.Payload", seed, g, seq)
				}
			}
		}
	}
	return nil
}

func purityPlan(t *testing.T) *Plan {
	t.Helper()
	doc, scores := paperShapedDoc(t)
	plan, err := NewPlanWithScores(doc, scores, Config{Gamma: 1.5, MaxGeneration: 8})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Generations() < 2 {
		t.Fatalf("want >= 2 generations, got %d", plan.Generations())
	}
	return plan
}

// TestPlanPurity pins that a plan's outputs are a pure function of its
// construction: every cooked payload, frame and fountain frame equals an
// independent encode of the raw packets, and asking again, in any order,
// returns the same bytes.
func TestPlanPurity(t *testing.T) {
	plan := purityPlan(t)
	ref := newPurityReference(t, plan)
	for pass := 0; pass < 3; pass++ {
		if err := ref.check(plan); err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
	}
}

// TestPlanPurityConcurrent is TestPlanPurity from 8 goroutines at once
// on one plan, so the race detector sees a cached plan shared the way the
// planner shares it: with no lock anywhere in it.
func TestPlanPurityConcurrent(t *testing.T) {
	plan := purityPlan(t)
	ref := newPurityReference(t, plan)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := ref.check(plan); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestLocate checks the exported generation/row mapping the frame cache
// keys by.
func TestLocate(t *testing.T) {
	doc, scores := paperShapedDoc(t)
	plan, err := NewPlanWithScores(doc, scores, Config{Gamma: 1.5, MaxGeneration: 8})
	if err != nil {
		t.Fatal(err)
	}
	seq := 0
	for g := 0; g < plan.Generations(); g++ {
		gen := plan.gens[g]
		for row := 0; row < gen.coder.N(); row++ {
			gotGen, gotRow, err := plan.Locate(seq)
			if err != nil {
				t.Fatalf("seq %d: %v", seq, err)
			}
			if gotGen != g || gotRow != row {
				t.Fatalf("Locate(%d) = (%d, %d), want (%d, %d)", seq, gotGen, gotRow, g, row)
			}
			seq++
		}
	}
	if _, _, err := plan.Locate(-1); err == nil {
		t.Fatal("Locate(-1): expected error")
	}
	if _, _, err := plan.Locate(plan.N()); err == nil {
		t.Fatal("Locate(N): expected error")
	}
}
