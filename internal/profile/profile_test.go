package profile

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"mobweb/internal/content"
	"mobweb/internal/document"
	"mobweb/internal/textproc"
)

func buildSC(t testing.TB, name string, paragraphs ...string) *content.SC {
	t.Helper()
	b := document.NewBuilder()
	b.Open(document.LODSection, "", "")
	for _, p := range paragraphs {
		b.Paragraph(p)
	}
	doc, err := b.Build(name, name)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := textproc.BuildIndex(doc, textproc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := content.Build(doc, idx)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func wirelessSC(t testing.TB) *content.SC {
	return buildSC(t, "wireless.xml",
		"Wireless channels corrupt packets during mobile transmission.",
		"Erasure coding protects wireless transmission against corruption.")
}

func gardeningSC(t testing.TB) *content.SC {
	return buildSC(t, "gardening.xml",
		"Tomato seedlings need morning sunlight and compost.",
		"Prune roses after the last frost for healthy blooms.")
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Decay: 1.5}); err == nil {
		t.Error("decay > 1 accepted")
	}
	if _, err := New(Config{PositiveRate: -1}); err == nil {
		t.Error("negative rate accepted")
	}
	if _, err := New(Config{MaxTerms: -1}); err == nil {
		t.Error("negative max terms accepted")
	}
}

func TestEmptyProfileScoresZero(t *testing.T) {
	p, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Score(wirelessSC(t)); got != 0 {
		t.Errorf("empty profile score = %v, want 0", got)
	}
	if got := p.Score(nil); got != 0 {
		t.Errorf("nil SC score = %v, want 0", got)
	}
}

func TestPositiveFeedbackRaisesScore(t *testing.T) {
	p, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	wireless := wirelessSC(t)
	gardening := gardeningSC(t)
	if err := p.Observe(Feedback{SC: wireless, Relevant: true, Query: "wireless transmission"}); err != nil {
		t.Fatal(err)
	}
	ws := p.Score(wireless)
	gs := p.Score(gardening)
	if ws <= 0 {
		t.Errorf("score of reinforced topic = %v, want > 0", ws)
	}
	if ws <= gs {
		t.Errorf("wireless score %v not above gardening %v", ws, gs)
	}
}

func TestNegativeFeedbackDepresses(t *testing.T) {
	p, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	gardening := gardeningSC(t)
	if err := p.Observe(Feedback{SC: gardening, Relevant: false}); err != nil {
		t.Fatal(err)
	}
	if got := p.Score(gardening); got >= 0 {
		t.Errorf("score after discard = %v, want < 0", got)
	}
}

func TestFractionReadScalesUpdate(t *testing.T) {
	weak, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	strong, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	sc := wirelessSC(t)
	if err := weak.Observe(Feedback{SC: sc, Relevant: true, FractionRead: 0.1}); err != nil {
		t.Fatal(err)
	}
	if err := strong.Observe(Feedback{SC: sc, Relevant: true, FractionRead: 1}); err != nil {
		t.Fatal(err)
	}
	if weak.Weight("wireless") >= strong.Weight("wireless") {
		t.Errorf("weak update %v not below strong %v",
			weak.Weight("wireless"), strong.Weight("wireless"))
	}
}

func TestFeedbackRequiresSC(t *testing.T) {
	p, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Observe(Feedback{}); err == nil {
		t.Error("feedback without SC accepted")
	}
}

func TestDecayFadesOldInterests(t *testing.T) {
	p, err := New(Config{Decay: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	wireless := wirelessSC(t)
	gardening := gardeningSC(t)
	if err := p.Observe(Feedback{SC: wireless, Relevant: true}); err != nil {
		t.Fatal(err)
	}
	before := p.Weight("wireless")
	// Many unrelated observations decay the wireless interest.
	for i := 0; i < 8; i++ {
		if err := p.Observe(Feedback{SC: gardening, Relevant: true}); err != nil {
			t.Fatal(err)
		}
	}
	after := p.Weight("wireless")
	if after >= before/2 {
		t.Errorf("wireless weight %v did not decay from %v", after, before)
	}
}

func TestMaxTermsEviction(t *testing.T) {
	p, err := New(Config{MaxTerms: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Observe(Feedback{SC: wirelessSC(t), Relevant: true}); err != nil {
		t.Fatal(err)
	}
	if got := len(p.Terms()); got > 3 {
		t.Errorf("profile holds %d terms, cap is 3", got)
	}
}

func TestBlend(t *testing.T) {
	p, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	sc := wirelessSC(t)
	if err := p.Observe(Feedback{SC: sc, Relevant: true}); err != nil {
		t.Fatal(err)
	}
	pure := p.Blend(0.8, sc, 0)
	if pure != 0.8 {
		t.Errorf("beta=0 blend = %v, want search score 0.8", pure)
	}
	personal := p.Blend(0.8, sc, 1)
	if personal != p.Score(sc) {
		t.Errorf("beta=1 blend = %v, want profile score %v", personal, p.Score(sc))
	}
	mixed := p.Blend(0.8, sc, 0.5)
	if mixed <= min(pure, personal)-1e-12 || mixed >= max(pure, personal)+1e-12 {
		t.Errorf("beta=0.5 blend %v outside [%v, %v]", mixed, min(pure, personal), max(pure, personal))
	}
	// Out-of-range betas clamp.
	if p.Blend(0.8, sc, -1) != pure {
		t.Error("beta < 0 not clamped")
	}
	if p.Blend(0.8, sc, 2) != personal {
		t.Error("beta > 1 not clamped")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	p, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	sc := wirelessSC(t)
	if err := p.Observe(Feedback{SC: sc, Relevant: true, Query: "wireless"}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if restored.Events() != p.Events() {
		t.Errorf("events %d, want %d", restored.Events(), p.Events())
	}
	// Map-iteration order varies the float summation order, so compare
	// with a tolerance.
	if diff := restored.Score(sc) - p.Score(sc); diff > 1e-12 || diff < -1e-12 {
		t.Errorf("restored score %v, want %v", restored.Score(sc), p.Score(sc))
	}
}

func TestLoadGarbage(t *testing.T) {
	p, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Load(bytes.NewReader([]byte("{not json"))); err == nil {
		t.Error("garbage accepted")
	}
}

func TestConcurrentUse(t *testing.T) {
	p, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	sc := wirelessSC(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := p.Observe(Feedback{SC: sc, Relevant: true}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				p.Score(sc)
				p.Terms()
			}
		}()
	}
	wg.Wait()
}

func min(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func max(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// TestPositiveRateScalesReinforcement: one full read adds PositiveRate
// times the document's normalised term weight, so doubling the rate
// doubles what a first read teaches.
func TestPositiveRateScalesReinforcement(t *testing.T) {
	learned := func(rate float64) float64 {
		p, err := New(Config{PositiveRate: rate})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Observe(Feedback{SC: wirelessSC(t), Relevant: true}); err != nil {
			t.Fatal(err)
		}
		return p.Weight("wireless")
	}
	if slow, fast := learned(0.2), learned(0.4); slow <= 0 || math.Abs(fast-2*slow) > 1e-12 {
		t.Errorf("wireless weight %v at rate 0.4, %v at 0.2; want twice", fast, slow)
	}
}
