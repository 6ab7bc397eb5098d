package fountain

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"mobweb/internal/erasure"
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
func drain(t *testing.T, enc *Encoder, dec *erasure.Decoder, lossRNG *rand.Rand, alpha float64) int {
	t.Helper()
	sent := 0
	for seq := 0; !dec.Complete(); seq++ {
		if seq > 50*enc.K()+200 {
			t.Fatalf("decoder did not complete after %d seqs (k=%d, received=%d)", seq, enc.K(), dec.Received())
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

// checkDecoded requires every symbol, read one by one and as the raw
// arena, to equal the source.
func checkDecoded(t *testing.T, dec *erasure.Decoder, src [][]byte) {
	t.Helper()
	raw, err := dec.Raw()
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range src {
		if got := dec.Symbol(i); !bytes.Equal(got, want) || !bytes.Equal(raw[i], want) {
			t.Fatalf("symbol %d: decoded %x (raw %x) want %x", i, got, raw[i], want)
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
// decode finishes at exactly k packets whose symbols read with no solve.
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
			for i, want := range src {
				if got := dec.Symbol(i); !bytes.Equal(got, want) || dec.Decoded() {
					t.Fatalf("k=%d seed=%x: symbol %d read %x (solved %v), want the source unsolved", k, seed, i, got, dec.Decoded())
				}
			}
			if dec.Received() != k {
				t.Fatalf("k=%d seed=%x: clean in-order decode took %d packets, want %d", k, seed, dec.Received(), k)
			}
			checkDecoded(t, dec, src)
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
				if firstSeen[i] < 0 && dec.Symbol(i) != nil {
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
// cache, all gone). What it still pins: a stream of repairs alone — no
// source packet to read in the clear — exposes nothing before rank k,
// then decodes by one solve over every column, and decoding the
// identical packets a second time is byte-identical with the same
// accounting.
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

	run := func() ([][]byte, int) {
		dec, err := NewDecoder(1, seed, k, size, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, seq := range seqs {
			if dec.Complete() {
				break
			}
			for i := 0; i < k; i++ {
				if dec.Symbol(i) != nil {
					t.Fatalf("symbol %d exposed before rank k", i)
				}
			}
			if _, err := dec.Add(seq, enc.Payload(seq)); err != nil {
				t.Fatal(err)
			}
		}
		if !dec.Complete() {
			t.Fatalf("decoder incomplete after %d degree>=2 packets", len(seqs))
		}
		checkDecoded(t, dec, src)
		raw, _ := dec.Raw()
		return raw, dec.Received()
	}

	r1, n1 := run()
	r2, n2 := run()
	for i := range r1 {
		if !bytes.Equal(r1[i], r2[i]) {
			t.Fatalf("symbol %d differs between two decodes of the same packets", i)
		}
	}
	if n1 != n2 {
		t.Fatalf("same packets, different accounting: received %d then %d", n1, n2)
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

// FuzzFountainRoundtrip is the cross-codec equivalence fuzzer: one
// erasure.Decoder under both row generators. nRaw 0 draws a fountain
// stream, any other value a Vandermonde code with m ≤ n ≤ 255. The
// survivors of a random loss pattern arrive shuffled — sources after
// repairs too — with duplicates. After every packet Complete() must agree
// with an independent rank count of the held coefficient rows, and what
// the decoder exposes must equal the source.
func FuzzFountainRoundtrip(f *testing.F) {
	f.Add(uint8(4), uint8(16), uint64(1), int64(2), uint8(50), uint8(0))
	f.Add(uint8(1), uint8(1), uint64(0), int64(0), uint8(0), uint8(0))
	f.Add(uint8(200), uint8(8), uint64(0xffffffffffffffff), int64(99), uint8(120), uint8(0))
	f.Add(uint8(39), uint8(32), uint64(0), int64(5), uint8(60), uint8(21))
	f.Add(uint8(254), uint8(3), uint64(0), int64(6), uint8(127), uint8(1))
	// Holds a repair dependent on those before it once k packets are in.
	f.Add(uint8(9), uint8(16), uint64(1), int64(159), uint8(50), uint8(0))
	f.Fuzz(func(t *testing.T, kRaw, sizeRaw uint8, seed uint64, lossSeed int64, alphaRaw, nRaw uint8) {
		k := int(kRaw)%MaxSourceSymbols + 1
		size := int(sizeRaw)%96 + 1
		alpha := float64(alphaRaw%128) / 256.0 // [0, 0.5)
		rng := rand.New(rand.NewSource(lossSeed))
		src := randomSymbols(rng, k, size)

		var (
			dec     *erasure.Decoder
			payload func(seq int) []byte
			coeffs  func(seq int) []byte // the packet's full coefficient row
			window  int
		)
		if nRaw == 0 {
			gen := int(lossSeed) & 0xffff
			enc, err := NewEncoder(gen, seed, src, nil)
			if err != nil {
				t.Fatal(err)
			}
			if dec, err = NewDecoder(gen, seed, k, size, nil); err != nil {
				t.Fatal(err)
			}
			payload = enc.Payload
			coeffs = func(seq int) []byte {
				row := make([]byte, k)
				idx, co := oracleCombination(enc.spec, seed, seq)
				for i, j := range idx {
					row[j] = co[i]
				}
				return row
			}
			window = 2*k + 16
		} else {
			n := k + (int(nRaw)-1)%(erasure.MaxCooked-k+1)
			c, err := erasure.NewCoder(k, n)
			if err != nil {
				t.Fatal(err)
			}
			cooked, err := c.Encode(src)
			if err != nil {
				t.Fatal(err)
			}
			// Cooking the identity yields the dispersal rows themselves.
			unit := make([][]byte, k)
			for i := range unit {
				unit[i] = make([]byte, k)
				unit[i][i] = 1
			}
			rows, err := c.Encode(unit)
			if err != nil {
				t.Fatal(err)
			}
			dec = c.NewDecoder(size)
			payload = func(seq int) []byte { return cooked[seq] }
			coeffs = func(seq int) []byte { return rows[seq] }
			window = n
		}

		var seqs []int
		for seq := 0; seq < window; seq++ {
			if rng.Float64() >= alpha {
				seqs = append(seqs, seq)
			}
		}
		rng.Shuffle(len(seqs), func(i, j int) { seqs[i], seqs[j] = seqs[j], seqs[i] })
		for i := len(seqs) - 1; i > 0; i -= 4 {
			seqs = append(seqs[:i+1], seqs[i:]...)
			seqs[i+1] = seqs[rng.Intn(i+1)]
		}

		var rank rankOracle
		for _, seq := range seqs {
			if _, err := dec.Add(seq, payload(seq)); err != nil {
				t.Fatal(err)
			}
			full := rank.add(coeffs(seq)) == k
			if dec.Complete() != full {
				t.Fatalf("after seq %d: complete %v, held rank full %v (k=%d)", seq, dec.Complete(), full, k)
			}
		}
		for i, want := range src {
			if got := dec.Symbol(i); got != nil && !bytes.Equal(got, want) {
				t.Fatalf("symbol %d mismatch", i)
			}
		}
		raw, err := dec.Raw()
		if dec.Complete() != (err == nil) {
			t.Fatalf("complete %v, Raw error %v", dec.Complete(), err)
		}
		for i := range raw {
			if !bytes.Equal(raw[i], src[i]) {
				t.Fatalf("raw symbol %d mismatch", i)
			}
		}
	})
}

// TestHotPathAllocations pins the per-packet allocation budget on both
// sides of the stream: cooking into a buffer with room allocates nothing,
// a decoder holds a source by reference with no allocation, and a repair
// costs at most its slot in the held-repair list, which grows amortised.
func TestHotPathAllocations(t *testing.T) {
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

	// Half a generation of sources, then a quarter of repairs: short of
	// rank k throughout, so no Add completes.
	const sources, repairs = k / 2, k / 4
	payloads := make([][]byte, k+sources+repairs)
	for seq := range payloads {
		if seq < sources || seq >= k+sources {
			payloads[seq] = enc.Payload(seq)
		}
	}
	dec, err := NewDecoder(0, 42, k, size, weights)
	if err != nil {
		t.Fatal(err)
	}
	add := func() {
		if _, err := dec.Add(seq, payloads[seq]); err != nil {
			t.Fatal(err)
		}
		seq++
	}
	seq = 0
	if n := testing.AllocsPerRun(sources-1, add); n != 0 {
		t.Errorf("Decoder.Add of a source: %v allocs per packet, want 0", n)
	}
	seq = k + sources
	if n := testing.AllocsPerRun(repairs-1, add); n > 1 {
		t.Errorf("Decoder.Add of a repair: %v allocs per packet, want <= 1", n)
	}
	if dec.Complete() || dec.Received() != sources+repairs {
		t.Fatalf("complete %v after %d packets, want incomplete after %d", dec.Complete(), dec.Received(), sources+repairs)
	}
}

// BenchmarkDecode times cold single-generation decodes under 20 % loss,
// from the first Add to the raw symbols: a fresh stream seed, loss
// pattern and decoder per iteration, so nothing can be carried from one
// decode to the next. The streams are cooked before the clock starts.
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
				if _, err := dec.Raw(); err != nil {
					b.Fatal(err)
				}
				received += dec.Received()
			}
			b.ReportMetric(float64(received)/float64(b.N), "received/op")
		})
	}
}
