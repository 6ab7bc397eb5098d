package fountain

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// randomSymbols builds k deterministic pseudo-random source symbols.
func randomSymbols(rng *rand.Rand, k, size int) [][]byte {
	src := make([][]byte, k)
	for i := range src {
		src[i] = make([]byte, size)
		rng.Read(src[i])
	}
	return src
}

// drain streams packets from enc into dec under Bernoulli loss alpha
// until the decoder completes, returning how many packets were sent.
func drain(t *testing.T, enc *Encoder, dec *Decoder, lossRNG *rand.Rand, alpha float64) int {
	t.Helper()
	sent := 0
	for seq := 0; !dec.Complete(); seq++ {
		if seq > 50*enc.K()+200 {
			t.Fatalf("decoder did not complete after %d seqs (k=%d, received=%d, recovered=%d)",
				seq, enc.K(), dec.Received(), dec.RecoveredCount())
		}
		sent++
		if lossRNG != nil && lossRNG.Float64() < alpha {
			continue
		}
		if _, err := dec.Add(seq, enc.Payload(seq)); err != nil {
			t.Fatalf("Add(%d): %v", seq, err)
		}
	}
	return sent
}

func checkDecoded(t *testing.T, dec *Decoder, src [][]byte) {
	t.Helper()
	for i, want := range src {
		got := dec.Symbol(i)
		if !bytes.Equal(got, want) {
			t.Fatalf("symbol %d: decoded %x want %x", i, got, want)
		}
	}
}

func TestRoundtripNoLoss(t *testing.T) {
	for _, k := range []int{1, 2, 3, 8, 40, 255} {
		rng := rand.New(rand.NewSource(int64(k)))
		src := randomSymbols(rng, k, 64)
		enc, err := NewEncoder(3, 0xfeed, src, nil)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := NewDecoder(3, 0xfeed, k, 64, nil)
		if err != nil {
			t.Fatal(err)
		}
		drain(t, enc, dec, nil, 0)
		checkDecoded(t, dec, src)
		if dec.Received() < k {
			t.Fatalf("k=%d completed with only %d packets", k, dec.Received())
		}
	}
}

func TestRoundtripUnderLoss(t *testing.T) {
	for _, alpha := range []float64{0.05, 0.2, 0.4} {
		for _, k := range []int{5, 32, 120} {
			rng := rand.New(rand.NewSource(int64(k)*7 + int64(alpha*100)))
			src := randomSymbols(rng, k, 48)
			weights := make([]float64, k)
			for i := range weights {
				weights[i] = rng.Float64()
			}
			enc, err := NewEncoder(0, 0xabcdef, src, weights)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := NewDecoder(0, 0xabcdef, k, 48, weights)
			if err != nil {
				t.Fatal(err)
			}
			drain(t, enc, dec, rng, alpha)
			checkDecoded(t, dec, src)
			over := float64(dec.Received())/float64(k) - 1
			if over > 0.35 {
				t.Errorf("alpha=%.2f k=%d reception overhead %.1f%% > 35%%", alpha, k, over*100)
			}
		}
	}
}

// TestSystematicPrefixIsSource pins the systematic prefix: under every
// seed the payload of seq i < k is raw packet i, and an in-order clean
// decode finishes at exactly k packets with no elimination between
// unresolved rows.
func TestSystematicPrefixIsSource(t *testing.T) {
	for _, k := range []int{1, 2, 40, 255} {
		src := randomSymbols(rand.New(rand.NewSource(int64(k))), k, 32)
		for _, seed := range []uint64{0, 1, ^uint64(0)} {
			enc, err := NewEncoder(1, seed, src, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, want := range src {
				if got := enc.Payload(i); !bytes.Equal(got, want) {
					t.Fatalf("k=%d seed=%x: seq %d is %x, want raw packet %x", k, seed, i, got, want)
				}
			}
			dec, err := NewDecoder(1, seed, k, 32, nil)
			if err != nil {
				t.Fatal(err)
			}
			drain(t, enc, dec, nil, 0)
			checkDecoded(t, dec, src)
			if dec.Received() != k || dec.UsedGaussian() {
				t.Fatalf("k=%d seed=%x: clean in-order decode took %d packets (gaussian %v), want %d and none",
					k, seed, dec.Received(), dec.UsedGaussian(), k)
			}
		}
	}
}

// TestOvershootTable bounds the reception overhead of dense repairs: a
// repair fails to add rank only when it falls in the span of what is
// held, about one chance in 256, so over α ∈ {0.1 … 0.4} × 8 seeds the
// mean count of packets consumed beyond k stays within 1 % of k.
func TestOvershootTable(t *testing.T) {
	const k, size, trials = 128, 16, 8
	for _, alpha := range []float64{0.1, 0.2, 0.3, 0.4} {
		over := 0
		for trial := 0; trial < trials; trial++ {
			rng := rand.New(rand.NewSource(int64(alpha*1000) + int64(trial)))
			src := randomSymbols(rng, k, size)
			seed := rng.Uint64()
			enc, err := NewEncoder(0, seed, src, nil)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := NewDecoder(0, seed, k, size, nil)
			if err != nil {
				t.Fatal(err)
			}
			drain(t, enc, dec, rng, alpha)
			checkDecoded(t, dec, src)
			over += dec.Received() - k
		}
		mean := float64(over) / trials
		if mean > 0.01*k {
			t.Errorf("alpha=%.1f: mean overshoot %.2f packets, want <= %.2f", alpha, mean, 0.01*k)
		}
		t.Logf("alpha=%.1f: mean overshoot %.3f packets over %d trials (k=%d)", alpha, mean, trials, k)
	}
}

func TestDeterministicStream(t *testing.T) {
	k := 17
	rng := rand.New(rand.NewSource(4))
	src := randomSymbols(rng, k, 40)
	w := []float64{1, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 0, 3, 0, 0, 0, 1}
	a, err := NewEncoder(2, 0xc0ffee, src, w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEncoder(2, 0xc0ffee, src, w)
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewEncoder(2, 0xc0ffef, src, w)
	if err != nil {
		t.Fatal(err)
	}
	differs := false
	for seq := 0; seq < 64; seq++ {
		pa, pb := a.Payload(seq), b.Payload(seq)
		if !bytes.Equal(pa, pb) {
			t.Fatalf("seq %d: same (seed, gen, seq) produced different payloads", seq)
		}
		if !bytes.Equal(pa, other.Payload(seq)) {
			differs = true
		}
	}
	if !differs {
		t.Fatal("different seeds produced identical streams")
	}
}

// TestUEPOrdering is the UEP property test: under a fixed loss pattern,
// high-IC symbols must decode no later (on average) than low-IC ones.
// The first quarter of symbols carries all the IC weight; their mean
// first-recovery time, averaged across seeds, must not exceed the
// weightless symbols'.
func TestUEPOrdering(t *testing.T) {
	const k, size = 64, 32
	var sumHigh, sumLow float64
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		src := randomSymbols(rng, k, size)
		weights := make([]float64, k)
		for i := 0; i < k/4; i++ {
			weights[i] = 1
		}
		seed := uint64(0x5eed0000 + trial)
		enc, err := NewEncoder(0, seed, src, weights)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := NewDecoder(0, seed, k, size, weights)
		if err != nil {
			t.Fatal(err)
		}
		firstSeen := make([]int, k)
		for i := range firstSeen {
			firstSeen[i] = -1
		}
		step := 0
		for seq := 0; !dec.Complete(); seq++ {
			if seq > 50*k {
				t.Fatalf("trial %d did not complete", trial)
			}
			if rng.Float64() < 0.25 { // fixed seeded loss pattern
				continue
			}
			if _, err := dec.Add(seq, enc.Payload(seq)); err != nil {
				t.Fatal(err)
			}
			step++
			for i := 0; i < k; i++ {
				if firstSeen[i] < 0 && dec.Recovered(i) {
					firstSeen[i] = step
				}
			}
		}
		checkDecoded(t, dec, src)
		var high, low float64
		for i := 0; i < k; i++ {
			if i < k/4 {
				high += float64(firstSeen[i])
			} else {
				low += float64(firstSeen[i])
			}
		}
		sumHigh += high / float64(k/4)
		sumLow += low / float64(k-k/4)
	}
	meanHigh, meanLow := sumHigh/20, sumLow/20
	if meanHigh > meanLow {
		t.Fatalf("UEP violated: high-IC symbols recovered at mean step %.2f, low-IC at %.2f", meanHigh, meanLow)
	}
	t.Logf("mean first-recovery step: high-IC %.2f, low-IC %.2f", meanHigh, meanLow)
}

// TestGaussianFallbackAndSharedInvCache keeps its name from the decoder
// it was written for (peeling, a Gaussian fallback and a shared inverse
// cache, all gone). What it still pins: a stream with no degree-1 packet
// at all — nothing for peeling to start from — decodes by elimination
// alone, and decoding the identical packets a second time is
// byte-identical with the same accounting.
func TestGaussianFallbackAndSharedInvCache(t *testing.T) {
	const k, size = 20, 32
	rng := rand.New(rand.NewSource(11))
	src := randomSymbols(rng, k, size)
	seed := uint64(0xdeadbeef)
	enc, err := NewEncoder(1, seed, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	// White-box: pick seqs whose combinations have degree >= 2: repairs.
	var seqs []int
	for seq := 0; len(seqs) < k+4 && seq < 100*k; seq++ {
		if idx, _ := oracleCombination(enc.spec, seed, seq); len(idx) >= 2 {
			seqs = append(seqs, seq)
		}
	}
	if len(seqs) < k+4 {
		t.Fatalf("only %d degree>=2 seqs found", len(seqs))
	}

	run := func() *Decoder {
		dec, err := NewDecoder(1, seed, k, size, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, seq := range seqs {
			if dec.Complete() {
				break
			}
			if _, err := dec.Add(seq, enc.Payload(seq)); err != nil {
				t.Fatal(err)
			}
		}
		if !dec.Complete() {
			t.Fatalf("decoder incomplete after %d degree>=2 packets", len(seqs))
		}
		checkDecoded(t, dec, src)
		return dec
	}

	d1, d2 := run(), run()
	for _, d := range []*Decoder{d1, d2} {
		if !d.UsedGaussian() {
			t.Fatal("expected row-against-row elimination with no degree-1 packets")
		}
	}
	if d1.Received() != d2.Received() {
		t.Fatalf("same packets, different accounting: received %d then %d", d1.Received(), d2.Received())
	}
}

func TestDuplicateAndLateAdds(t *testing.T) {
	k := 10
	rng := rand.New(rand.NewSource(5))
	src := randomSymbols(rng, k, 16)
	enc, _ := NewEncoder(0, 7, src, nil)
	dec, _ := NewDecoder(0, 7, k, 16, nil)
	for seq := 0; !dec.Complete(); seq++ {
		p := enc.Payload(seq)
		dec.Add(seq, p)
		dec.Add(seq, p) // duplicate must be a no-op
	}
	got := dec.Received()
	dec.Add(1000, enc.Payload(1000)) // post-completion add is a no-op
	if dec.Received() != got {
		t.Fatal("post-completion Add changed received count")
	}
	checkDecoded(t, dec, src)
}

func TestValidation(t *testing.T) {
	src := [][]byte{{1, 2}, {3, 4}}
	if _, err := NewEncoder(0, 1, nil, nil); err == nil {
		t.Error("empty source accepted")
	}
	if _, err := NewEncoder(0, 1, [][]byte{{1}, {2, 3}}, nil); err == nil {
		t.Error("ragged source accepted")
	}
	if _, err := NewEncoder(0, 1, src, []float64{1}); err == nil {
		t.Error("short weights accepted")
	}
	if _, err := NewEncoder(0, 1, src, []float64{1, -2}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := NewDecoder(0, 1, 0, 8, nil); err == nil {
		t.Error("k=0 decoder accepted")
	}
	if _, err := NewDecoder(0, 1, 2, 0, nil); err == nil {
		t.Error("size=0 decoder accepted")
	}
	dec, _ := NewDecoder(0, 1, 2, 2, nil)
	if _, err := dec.Add(0, []byte{1}); err == nil {
		t.Error("short payload accepted")
	}
}

// FuzzFountainRoundtrip is the cross-codec equivalence fuzzer required
// by the issue: random geometry, seed and loss pattern; decoded bytes
// must equal the source exactly.
func FuzzFountainRoundtrip(f *testing.F) {
	f.Add(uint8(4), uint8(16), uint64(1), int64(2), uint8(50))
	f.Add(uint8(1), uint8(1), uint64(0), int64(0), uint8(0))
	f.Add(uint8(200), uint8(8), uint64(0xffffffffffffffff), int64(99), uint8(120))
	f.Fuzz(func(t *testing.T, kRaw, sizeRaw uint8, seed uint64, lossSeed int64, alphaRaw uint8) {
		k := int(kRaw)%MaxSourceSymbols + 1
		size := int(sizeRaw)%96 + 1
		alpha := float64(alphaRaw%128) / 256.0 // [0, 0.5)
		rng := rand.New(rand.NewSource(lossSeed))
		src := randomSymbols(rng, k, size)
		weights := make([]float64, k)
		for i := range weights {
			weights[i] = rng.Float64() * 3
		}
		enc, err := NewEncoder(int(lossSeed)&0xffff, seed, src, weights)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := NewDecoder(int(lossSeed)&0xffff, seed, k, size, weights)
		if err != nil {
			t.Fatal(err)
		}
		for seq := 0; !dec.Complete(); seq++ {
			if seq > 200*k+400 {
				t.Fatalf("no completion after %d seqs (k=%d alpha=%.2f)", seq, k, alpha)
			}
			if rng.Float64() < alpha {
				continue
			}
			if _, err := dec.Add(seq, enc.Payload(seq)); err != nil {
				t.Fatal(err)
			}
		}
		for i, want := range src {
			if !bytes.Equal(dec.Symbol(i), want) {
				t.Fatalf("symbol %d mismatch", i)
			}
		}
	})
}

// TestHotPathAllocations pins the per-packet allocation budget on both
// sides of the stream: cooking into a buffer with room allocates
// nothing, and a decoder allocates only the row the packet becomes.
func TestHotPathAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const k, size = 128, 256
	rng := rand.New(rand.NewSource(3))
	src := randomSymbols(rng, k, size)
	weights := make([]float64, k)
	for i := range weights {
		weights[i] = rng.Float64()
	}
	enc, err := NewEncoder(0, 42, src, weights)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, size)
	seq := 0
	if n := testing.AllocsPerRun(200, func() {
		buf = enc.AppendPayload(buf[:0], seq)
		seq++
	}); n != 0 {
		t.Errorf("AppendPayload into a pre-sized buffer: %v allocs, want 0", n)
	}

	payloads := make([][]byte, k/2) // half a generation: no completion, no map growth
	for i := range payloads {
		payloads[i] = enc.Payload(i)
	}
	dec, err := NewDecoder(0, 42, k, size, weights)
	if err != nil {
		t.Fatal(err)
	}
	seq = 0
	if n := testing.AllocsPerRun(len(payloads)-1, func() {
		if _, err := dec.Add(seq, payloads[seq]); err != nil {
			t.Fatal(err)
		}
		seq++
	}); n > 1 {
		t.Errorf("Decoder.Add: %v allocs per packet, want <= 1", n)
	}
}

// BenchmarkDecode times cold single-generation decodes under 20 % loss:
// a fresh stream seed, loss pattern and decoder per iteration, so
// nothing can be carried from one decode to the next. The streams are
// cooked before the clock starts.
func BenchmarkDecode(b *testing.B) {
	for _, k := range []int{40, 128} {
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			const size, alpha = 256, 0.2
			rng := rand.New(rand.NewSource(int64(k)))
			src := randomSymbols(rng, k, size)
			type stream struct {
				seed     uint64
				seqs     []int
				payloads []byte
			}
			streams := make([]stream, b.N)
			for i := range streams {
				st := &streams[i]
				st.seed = rng.Uint64()
				enc, err := NewEncoder(0, st.seed, src, nil)
				if err != nil {
					b.Fatal(err)
				}
				for seq := 0; seq < 2*k+64; seq++ {
					if rng.Float64() >= alpha {
						st.seqs = append(st.seqs, seq)
						st.payloads = enc.AppendPayload(st.payloads, seq)
					}
				}
			}
			received := 0
			b.ReportAllocs()
			b.ResetTimer()
			for _, st := range streams {
				dec, err := NewDecoder(0, st.seed, k, size, nil)
				if err != nil {
					b.Fatal(err)
				}
				for j := 0; !dec.Complete(); j++ {
					if _, err := dec.Add(st.seqs[j], st.payloads[j*size:(j+1)*size]); err != nil {
						b.Fatal(err)
					}
				}
				received += dec.Received()
			}
			b.ReportMetric(float64(received)/float64(b.N), "received/op")
		})
	}
}
