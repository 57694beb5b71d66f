package ecc

import (
	"testing"
	"testing/quick"

	"sentinel3d/internal/mathx"
)

func mustLDPC(t testing.TB, k, m int, seed uint64) *LDPC {
	t.Helper()
	c, err := NewLDPC(k, m, seed)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func randomData(r *mathx.Rand, k int) []bool {
	d := make([]bool, k)
	for i := range d {
		d[i] = r.Float64() < 0.5
	}
	return d
}

func TestNewLDPCValidation(t *testing.T) {
	if _, err := NewLDPC(0, 100, 1); err == nil {
		t.Fatal("accepted k=0")
	}
	if _, err := NewLDPC(100, 4, 1); err == nil {
		t.Fatal("accepted tiny m")
	}
}

func TestEncodeSatisfiesSyndrome(t *testing.T) {
	// Property: every encoded word is a valid codeword.
	c := mustLDPC(t, 512, 64, 7)
	f := func(seed uint32) bool {
		r := mathx.NewRand(uint64(seed))
		cw := c.Encode(randomData(r, c.K))
		return c.CheckSyndrome(cw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeSystematic(t *testing.T) {
	c := mustLDPC(t, 256, 64, 3)
	r := mathx.NewRand(9)
	data := randomData(r, c.K)
	cw := c.Encode(data)
	for i, b := range data {
		if cw[i] != b {
			t.Fatalf("codeword not systematic at bit %d", i)
		}
	}
	if len(cw) != c.N {
		t.Fatalf("codeword length %d, want %d", len(cw), c.N)
	}
}

func TestEncodePanicsOnWrongLength(t *testing.T) {
	c := mustLDPC(t, 64, 32, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Encode accepted wrong-length data")
		}
	}()
	c.Encode(make([]bool, 63))
}

func TestRate(t *testing.T) {
	c := mustLDPC(t, 800, 200, 1)
	if c.Rate() != 0.8 {
		t.Fatalf("rate = %v, want 0.8", c.Rate())
	}
}

// hardLLR is the LLR magnitude the tests assign to a hard-decision read.
const hardLLR = 4.0

// llrFromBits builds hard-decision LLRs for a received word.
func llrFromBits(bits []bool) []float64 {
	llr := make([]float64, len(bits))
	for i, b := range bits {
		if b {
			llr[i] = -hardLLR
		} else {
			llr[i] = hardLLR
		}
	}
	return llr
}

func TestDecodeCleanWord(t *testing.T) {
	c := mustLDPC(t, 1024, 128, 5)
	r := mathx.NewRand(2)
	data := randomData(r, c.K)
	cw := c.Encode(data)
	res := c.Decode(llrFromBits(cw), 30)
	if !res.OK {
		t.Fatal("clean word did not decode")
	}
	if res.Iterations != 1 {
		t.Fatalf("clean word took %d iterations", res.Iterations)
	}
	for i := range cw {
		if res.Bits[i] != cw[i] {
			t.Fatalf("clean decode altered bit %d", i)
		}
	}
}

func TestDecodeCorrectsSparseErrors(t *testing.T) {
	// Rate 8/9 code must correct a ~0.2% raw bit error rate in hard
	// decision.
	c := mustLDPC(t, 4096, 512, 5)
	r := mathx.NewRand(11)
	ok := 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		data := randomData(r, c.K)
		cw := c.Encode(data)
		recv := append([]bool(nil), cw...)
		nErr := 9 // ~0.2% of 4608
		for i := 0; i < nErr; i++ {
			p := r.Intn(c.N)
			recv[p] = !recv[p]
		}
		got, success := c.DecodeData(llrFromBits(recv), 40)
		if !success {
			continue
		}
		match := true
		for i := range data {
			if got[i] != data[i] {
				match = false
				break
			}
		}
		if match {
			ok++
		}
	}
	if ok < trials-1 {
		t.Fatalf("corrected only %d/%d words with 9 errors", ok, trials)
	}
}

func TestDecodeFailsUnderHeavyErrors(t *testing.T) {
	// 5% raw bit errors is far beyond any rate-8/9 hard-decision code.
	c := mustLDPC(t, 4096, 512, 5)
	r := mathx.NewRand(13)
	fails := 0
	const trials = 5
	for trial := 0; trial < trials; trial++ {
		cw := c.Encode(randomData(r, c.K))
		recv := append([]bool(nil), cw...)
		for i := range recv {
			if r.Float64() < 0.05 {
				recv[i] = !recv[i]
			}
		}
		res := c.Decode(llrFromBits(recv), 40)
		if !res.OK {
			fails++
			continue
		}
		// Converging to a wrong codeword also counts as failure here.
		for i := 0; i < c.K; i++ {
			if res.Bits[i] != cw[i] {
				fails++
				break
			}
		}
	}
	if fails < trials-1 {
		t.Fatalf("decoder claimed success on %d/%d hopeless words",
			trials-fails, trials)
	}
}

func TestSoftLLRBeatsHardDecision(t *testing.T) {
	// With erasures marked by low-confidence LLRs, soft decoding corrects
	// patterns hard decision cannot. Flip bits but mark them unreliable.
	c := mustLDPC(t, 2048, 256, 5)
	r := mathx.NewRand(17)
	softWins := 0
	const trials = 10
	for trial := 0; trial < trials; trial++ {
		cw := c.Encode(randomData(r, c.K))
		recv := append([]bool(nil), cw...)
		flipped := make(map[int]bool)
		for len(flipped) < 20 {
			p := r.Intn(c.N)
			if !flipped[p] {
				flipped[p] = true
				recv[p] = !recv[p]
			}
		}
		hard := llrFromBits(recv)
		soft := llrFromBits(recv)
		for p := range flipped {
			soft[p] *= 0.05 // sensed near the boundary: low confidence
		}
		hardOK := c.Decode(hard, 40).OK
		softOK := c.Decode(soft, 40).OK
		if softOK && !hardOK {
			softWins++
		}
		if softOK != hardOK && hardOK {
			t.Fatal("hard succeeded where soft failed with same signs")
		}
	}
	if softWins == 0 {
		t.Fatal("soft information never helped; LLR handling broken?")
	}
}

func TestDecodePanicsOnWrongLength(t *testing.T) {
	c := mustLDPC(t, 64, 32, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Decode accepted wrong-length llr")
		}
	}()
	c.Decode(make([]float64, 10), 5)
}

func TestDeterministicConstruction(t *testing.T) {
	a := mustLDPC(t, 256, 64, 42)
	b := mustLDPC(t, 256, 64, 42)
	r := mathx.NewRand(1)
	data := randomData(r, 256)
	ca, cb := a.Encode(data), b.Encode(data)
	for i := range ca {
		if ca[i] != cb[i] {
			t.Fatal("same seed produced different codes")
		}
	}
}

func BenchmarkLDPCDecode(b *testing.B) {
	c := mustLDPC(b, 4096, 512, 5)
	r := mathx.NewRand(1)
	cw := c.Encode(randomData(r, c.K))
	recv := append([]bool(nil), cw...)
	for i := 0; i < 20; i++ {
		p := r.Intn(c.N)
		recv[p] = !recv[p]
	}
	llr := llrFromBits(recv)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Decode(llr, 40)
	}
}
