package trace

import (
	"encoding/binary"
	"math"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"sentinel3d/internal/mathx"
)

// referenceStream is the generator written the plain way, one request
// at a time with float Bernoulli tests on mathx.Rand: the oracle for
// the integer thresholds and the block fill. Request i is drawn span
// only (arrival and op draws stepped over, the clock left where it
// was, arrival and op zero) when spanOnly(i) is set.
func referenceStream(spec WorkloadSpec, n int, seed uint64, spanOnly func(i int) bool) []Request {
	r := mathx.NewRand(seed)
	z := newZipf(spec.WorkingSetPages, spec.ZipfS)
	var now float64
	var prevEnd int64
	out := make([]Request, n)
	for i := range out {
		var req Request
		if spanOnly(i) {
			r.Uint64()
			r.Uint64()
			r.Uint64()
		} else {
			if r.Float64() < spec.Burstiness {
				now += float64(-math.Log(1-r.Float64()) * spec.MeanIATUS * 0.02)
			} else {
				now += float64(-math.Log(1-r.Float64()) * spec.MeanIATUS)
			}
			req.ArriveUS, req.Op = now, Write
			if r.Float64() < spec.ReadFrac {
				req.Op = Read
			}
		}
		req.Pages = 1
		for p := 1 - 1/spec.MeanPages; req.Pages < 64 && r.Float64() < p; {
			req.Pages++
		}
		if r.Float64() < spec.SeqProb && prevEnd > 0 && prevEnd+int64(req.Pages) < spec.WorkingSetPages {
			req.LPN = prevEnd
		} else {
			req.LPN = z.lpn(r.Float64())
			if req.LPN+int64(req.Pages) > spec.WorkingSetPages {
				req.LPN = spec.WorkingSetPages - int64(req.Pages)
			}
		}
		prevEnd = req.LPN + int64(req.Pages)
		out[i] = req
	}
	return out
}

// oracleSpecs is every built-in spec, an uncertified power-branch spec,
// an s = 1 (zipfLog) spec and the probability edges: reads never and
// always, always sequential, no bursts, single-page requests.
func oracleSpecs(t *testing.T) []WorkloadSpec {
	specs := MSRWorkloads()
	hm, _ := WorkloadByName("hm_0")
	edge := func(name string, set func(*WorkloadSpec)) WorkloadSpec {
		w := hm
		w.Name, w.WorkingSetPages = name, scenarioPages
		set(&w)
		return w
	}
	pow := edge("pow", func(w *WorkloadSpec) { w.ZipfS = 0.6 })
	log1 := edge("log", func(w *WorkloadSpec) { w.ZipfS = 1 })
	if z := newZipf(pow.WorkingSetPages, pow.ZipfS); z.kind != zipfPower || z.k != -1 {
		t.Fatalf("pow spec: kind %d k %d, want the uncertified power branch", z.kind, z.k)
	}
	if z := newZipf(log1.WorkingSetPages, log1.ZipfS); z.kind != zipfLog {
		t.Fatalf("log spec: kind %d, want zipfLog", z.kind)
	}
	return append(specs, pow, log1,
		edge("reads0", func(w *WorkloadSpec) { w.ReadFrac = 0 }),
		edge("reads1", func(w *WorkloadSpec) { w.ReadFrac = 1 }),
		edge("seq1", func(w *WorkloadSpec) { w.SeqProb = 1 }),
		edge("burst0", func(w *WorkloadSpec) { w.Burstiness = 0 }),
		edge("pages1", func(w *WorkloadSpec) { w.MeanPages = 1 }))
}

// TestGeneratorBlocksMatchNext drives one generator per spec and block
// size through a hash-chosen mix of Next, NextBlock and NextSpans, and
// requires every request, arrival bits included, to equal the float
// reference's: the integer thresholds, the register-held state and the
// block fill change no draw. A span-only call leaves the clock
// unadvanced in both.
func TestGeneratorBlocksMatchNext(t *testing.T) {
	const n = 20000
	for _, spec := range oracleSpecs(t) {
		for _, size := range []int{1, 7, 4096} {
			g, err := NewGenerator(spec, n, 5)
			if err != nil {
				t.Fatal(err)
			}
			var got []Request
			var spans []bool
			blk := make([]Request, size)
			for call := uint64(0); len(got) < n; call++ {
				var k int
				span := false
				switch mathx.Hash64(call) % 3 {
				case 0:
					r, ok, err := g.Next()
					if err != nil || !ok {
						t.Fatalf("%s: Next at %d = (%v, %v)", spec.Name, len(got), ok, err)
					}
					blk[0], k = r, 1
				case 1, 2:
					if span = call%2 == 1; span {
						k = g.NextSpans(blk)
					} else {
						k = g.NextBlock(blk)
					}
					if want := min(len(blk), n-len(got)); k != want {
						t.Fatalf("%s/%d: block of %d at %d, want %d", spec.Name, size, k, len(got), want)
					}
				}
				got = append(got, blk[:k]...)
				for range k {
					spans = append(spans, span)
				}
			}
			want := referenceStream(spec, n, 5, func(i int) bool { return spans[i] })
			for i := range want {
				if g, w := got[i], want[i]; g.Op != w.Op || g.LPN != w.LPN || g.Pages != w.Pages ||
					math.Float64bits(g.ArriveUS) != math.Float64bits(w.ArriveUS) {
					t.Fatalf("%s/%d: request %d = %+v, reference %+v (span only %v)",
						spec.Name, size, i, g, w, spans[i])
				}
			}
			if k := g.NextBlock(blk); k != 0 {
				t.Fatalf("%s/%d: NextBlock past the end yielded %d", spec.Name, size, k)
			}
			if k := g.NextSpans(blk); k != 0 {
				t.Fatalf("%s/%d: NextSpans past the end yielded %d", spec.Name, size, k)
			}
			if _, ok, _ := g.Next(); ok {
				t.Fatalf("%s/%d: Next past the end", spec.Name, size)
			}
		}
	}
}

// TestGenerateUntrustedN: a count whose []Request would overflow an
// int's worth of bytes (a scenario's request count reaches Generate
// unchecked) fails with an error naming it instead of panicking in
// makeslice, and a plausible count is reserved exactly, filled in
// blocks to the same stream Next yields.
func TestGenerateUntrustedN(t *testing.T) {
	spec, _ := WorkloadByName("hm_0")
	for _, n := range []int{math.MaxInt, math.MaxInt/int(unsafe.Sizeof(Request{})) + 1} {
		reqs, err := Generate(spec, n, 1)
		if err == nil || !strings.Contains(err.Error(), strconv.Itoa(n)) {
			t.Fatalf("Generate(%d): %d requests, err %v; want an error naming the count", n, len(reqs), err)
		}
	}
	const n = 10000
	reqs, err := Generate(spec, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != n || cap(reqs) != n {
		t.Fatalf("Generate(%d): len %d cap %d, want both %d", n, len(reqs), cap(reqs), n)
	}
	want := referenceStream(spec, n, 1, func(int) bool { return false })
	for i := range want {
		if reqs[i] != want[i] {
			t.Fatalf("request %d = %+v, reference %+v", i, reqs[i], want[i])
		}
	}
}

// FuzzDrawThreshold: for every q in [0, 1] and every 64-bit RNG word
// x, the generator's integer test x>>11 < drawThreshold(q) agrees with
// the float test Float64() < q it replaces. Seeds put x at the
// threshold and one either side, for the probability edges and every
// built-in spec's four probabilities.
func FuzzDrawThreshold(f *testing.F) {
	qs := []float64{0, 1, 0x1p-53, 1 - 0x1p-53, math.SmallestNonzeroFloat64}
	for _, w := range MSRWorkloads() {
		qs = append(qs, w.Burstiness, w.ReadFrac, 1-1/w.MeanPages, w.SeqProb)
	}
	for _, q := range qs {
		thr := drawThreshold(q)
		for _, m := range []uint64{thr - 1, thr, thr + 1} {
			f.Add(q, m<<11)
			f.Add(q, m<<11|0x7ff)
		}
	}
	f.Fuzz(func(t *testing.T, q float64, x uint64) {
		if !(q >= 0 && q <= 1) {
			t.Skip("q outside [0, 1]")
		}
		got := x>>11 < drawThreshold(q)
		want := float64(x>>11)*0x1p-53 < q
		if got != want {
			t.Fatalf("q = %v (thr %d), x = %#x: integer test %v, float test %v",
				q, drawThreshold(q), x, got, want)
		}
	})
}

// TestReadBlockMatchesNext: ReadBlock over each kind of source (the
// generator, whole and span-only; the S3DT decoder; a slice) yields the
// stream Next does, in blocks that end short only at the end of the
// trace, and stops on a bad S3DT record with the good prefix and the
// decoder's error.
func TestReadBlockMatchesNext(t *testing.T) {
	spec, _ := WorkloadByName("prxy_0")
	const n = 1000
	want, err := Generate(spec, n, 9)
	if err != nil {
		t.Fatal(err)
	}
	data := encodeReqs(t, want)
	for _, c := range []struct {
		name  string
		open  func() Source
		spans bool
	}{
		{"generator", func() Source { g, _ := NewGenerator(spec, n, 9); return g }, false},
		{"generator spans", func() Source { g, _ := NewGenerator(spec, n, 9); return g }, true},
		{"s3dt", func() Source { return mustBinarySource(t, data) }, false},
		{"slice", func() Source { return Sliced(want) }, true},
	} {
		src, blk := c.open(), make([]Request, 7)
		var got []Request
		for k := len(blk); k == len(blk); {
			if k, err = ReadBlock(src, blk, c.spans); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			got = append(got, blk[:k]...)
		}
		if len(got) != n {
			t.Fatalf("%s: read %d requests, want %d", c.name, len(got), n)
		}
		for i, w := range want {
			if _, gen := c.open().(*Generator); gen && c.spans {
				w.ArriveUS, w.Op = 0, 0
			}
			if got[i] != w {
				t.Fatalf("%s: request %d = %+v, want %+v", c.name, i, got[i], w)
			}
		}
	}
	bad := append([]byte(nil), data...)
	binary.LittleEndian.PutUint64(bad[binaryHeaderBytes+10*binaryRecordBytes:], math.Float64bits(-1))
	blk := make([]Request, 16)
	k, err := ReadBlock(mustBinarySource(t, bad), blk, false)
	if k != 10 || err == nil || !strings.Contains(err.Error(), "record 10") {
		t.Fatalf("bad record 10: read %d, err %v", k, err)
	}
}
