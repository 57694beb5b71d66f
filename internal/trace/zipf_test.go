package trace

import (
	"fmt"
	"math"
	"testing"

	"sentinel3d/internal/mathx"
)

// scenarioPages is the footprint the scenario layer, tracesim and the
// perfbench replay workloads give every spec: 60% of one 4-channel
// device's 98,304 pages.
const scenarioPages = 58982

// exactRank is the inverse CDF exactly as the generator evaluated it
// before the certified rank: every draw of zipf.rank must equal it. top
// is the power branch's (n+1)^(1-s) - 1.
func exactRank(n int64, s, top, u float64) int64 {
	var x float64
	switch {
	case s <= 0:
		x = u * float64(n)
	case math.Abs(s-1) < 1e-9:
		x = math.Exp(u*math.Log(float64(n)+1)) - 1
	default:
		x = math.Pow(1+float64(u*top), 1/(1-s)) - 1
	}
	return int64(x)
}

func zipfTop(n int64, s float64) float64 {
	return math.Pow(float64(n)+1, 1-s) - 1
}

// footprints returns the spec's built-in working set and the scenario
// footprint.
func footprints(spec WorkloadSpec) []int64 {
	return []int64{spec.WorkingSetPages, scenarioPages}
}

// TestZipfCertificate pins which built-in specs take the certified
// path and with which chain: the decision follows the Zipf exponent
// alone, at either footprint.
func TestZipfCertificate(t *testing.T) {
	want := map[string]struct {
		kind zipfKind
		k    int
		inv  bool // y < 0
	}{
		"hm_0":    {zipfPower, 10, false},
		"mds_0":   {zipfPower, 5, false},
		"prn_0":   {zipfPower, -1, false},
		"proj_0":  {zipfPower, -1, false},
		"prxy_0":  {zipfPower, 10, true},
		"rsrch_0": {zipfPower, 20, false},
		"src2_0":  {zipfPower, 10, false},
		"wdev_0":  {zipfLog, -1, false},
	}
	for _, spec := range MSRWorkloads() {
		for _, n := range footprints(spec) {
			z := newZipf(n, spec.ZipfS)
			w := want[spec.Name]
			if inv := z.y < 0; z.kind != w.kind || z.k != w.k || inv != w.inv {
				t.Errorf("%s at %d pages: kind %d k %d inv %v, want kind %d k %d inv %v",
					spec.Name, n, z.kind, z.k, inv, w.kind, w.k, w.inv)
			}
		}
	}
	if z := newZipf(1000, 0); z.kind != zipfUniform || z.k != -1 {
		t.Errorf("s = 0: kind %d k %d, want uniform without certificate", z.kind, z.k)
	}
}

// TestZipfRankMatchesExact draws 10M uniforms per built-in spec at both
// footprints and requires the sampler's rank to equal the exact
// expression's on every one. It counts the certified draws whose band
// holds an integer, which take the exact fallback, and requires them to
// be rare: the certified path must carry the draws.
func TestZipfRankMatchesExact(t *testing.T) {
	draws := 10_000_000
	if testing.Short() {
		draws = 200_000
	}
	for _, spec := range MSRWorkloads() {
		for _, n := range footprints(spec) {
			spec, n := spec, n
			t.Run(fmt.Sprintf("%s/%d", spec.Name, n), func(t *testing.T) {
				t.Parallel()
				z := newZipf(n, spec.ZipfS)
				top := zipfTop(n, spec.ZipfS)
				r := mathx.NewRand(mathx.Mix(uint64(n), 0x21bf))
				fallbacks := 0
				for i := 0; i < draws; i++ {
					u := r.Float64()
					got, want := z.rank(u), exactRank(n, spec.ZipfS, top, u)
					if got != want {
						t.Fatalf("draw %d: u = %v (%#x): rank %d, exact %d",
							i, u, math.Float64bits(u), got, want)
					}
					if z.k >= 0 {
						if lo, hi := z.band(1 + float64(u*z.top)); lo != hi {
							fallbacks++
						}
					}
				}
				t.Logf("%d draws, %d exact fallbacks", draws, fallbacks)
				// The band is 2e-11 wide relative to x, so a certified
				// spec falls back on a vanishing share of draws.
				if z.k >= 0 && fallbacks*1000 > draws {
					t.Errorf("%d of %d draws fell back to math.Pow", fallbacks, draws)
				}
			})
		}
	}
}

// TestZipfRankBoundaries aims at the draws where the certificate
// matters: for ranks m spread geometrically over [1, n), it bisects
// over the float bits of u for the first draw whose exact rank reaches
// m, then checks every draw within zipfBoundaryULPs of it. Their exact
// x lies within a few ulps of the integer m, where any estimate short
// of the exact expression picks the wrong side. The exact fallback must
// run there, and the certified band must hold an integer wherever it
// does.
func TestZipfRankBoundaries(t *testing.T) {
	const targets = 300
	const zipfBoundaryULPs = 64
	for _, spec := range MSRWorkloads() {
		for _, n := range footprints(spec) {
			z := newZipf(n, spec.ZipfS)
			if z.k < 0 {
				continue
			}
			top := zipfTop(n, spec.ZipfS)
			exact := func(bits uint64) int64 {
				return exactRank(n, spec.ZipfS, top, math.Float64frombits(bits))
			}
			fallbacks, near := 0, 0
			prev := int64(-1)
			for j := 1; j <= targets; j++ {
				m := int64(math.Round(math.Exp(float64(j) / targets * math.Log(float64(n-1)))))
				if m <= prev {
					continue
				}
				prev = m
				// Smallest float bits in [0, 1) whose exact rank is >= m.
				lo, hi := uint64(0), math.Float64bits(1)
				for lo < hi {
					mid := lo + (hi-lo)/2
					if exact(mid) >= m {
						hi = mid
					} else {
						lo = mid + 1
					}
				}
				first := uint64(0)
				if lo > zipfBoundaryULPs {
					first = lo - zipfBoundaryULPs
				}
				for bits := first; bits <= lo+zipfBoundaryULPs; bits++ {
					u := math.Float64frombits(bits)
					if u < 0 || u >= 1 {
						continue
					}
					got, want := z.rank(u), exact(bits)
					if got != want {
						t.Fatalf("%s at %d pages, rank %d: u = %v (%#x): rank %d, exact %d",
							spec.Name, n, m, u, bits, got, want)
					}
					b := 1 + float64(u*z.top)
					x := math.Pow(b, z.y) - 1
					if math.Abs(x-float64(m)) <= 4*ulp(float64(m)) {
						near++
					}
					if blo, bhi := z.band(b); blo != bhi {
						fallbacks++
						if blo >= bhi {
							t.Fatalf("%s: band ends %d > %d", spec.Name, blo, bhi)
						}
					}
				}
			}
			t.Logf("%s at %d pages: %d draws within 4 ulps of a rank, %d fallbacks",
				spec.Name, n, near, fallbacks)
			if near == 0 || fallbacks == 0 {
				t.Errorf("%s at %d pages: %d draws within 4 ulps of a rank, %d fallbacks; want both > 0",
					spec.Name, n, near, fallbacks)
			}
		}
	}
}

func ulp(x float64) float64 { return math.Nextafter(x, math.Inf(1)) - x }

// FuzzZipfRank requires the sampler to agree with the exact expression
// for any skew, page count and draw. The draw is the fuzzed bits when
// they encode a float in [0, 1), and the generator's own 53-bit mapping
// of them otherwise.
func FuzzZipfRank(f *testing.F) {
	for _, spec := range MSRWorkloads() {
		f.Add(spec.ZipfS, spec.WorkingSetPages, uint64(0x3fe0000000000000))
		f.Add(spec.ZipfS, int64(scenarioPages), uint64(0xdeadbeefcafef00d))
	}
	// Integral exponents certify at any footprint: y = 4, -4 and -1.
	f.Add(0.75, int64(1)<<20, uint64(0x3fd5555555555555))
	f.Add(1.25, int64(scenarioPages), uint64(0x3fee000000000001))
	f.Add(2.0, int64(1)<<40, uint64(0x3fefffffffffffff))
	f.Add(0.5, int64(1), uint64(0))
	f.Fuzz(func(t *testing.T, s float64, n int64, bits uint64) {
		if n < 1 {
			t.Skip("page count must be positive")
		}
		u := math.Float64frombits(bits)
		if !(u >= 0 && u < 1) {
			u = float64(bits>>11) * 0x1p-53
		}
		z := newZipf(n, s)
		got, want := z.rank(u), exactRank(n, s, zipfTop(n, s), u)
		if got != want {
			t.Fatalf("s = %v, n = %d, u = %v: rank %d, exact %d (k %d)", s, n, u, got, want, z.k)
		}
	})
}

// BenchmarkGeneratorNext measures one request of each built-in spec at
// the scenario footprint; the certified specs skip math.Pow on almost
// every draw.
func BenchmarkGeneratorNext(b *testing.B) {
	for _, spec := range MSRWorkloads() {
		spec.WorkingSetPages = scenarioPages
		b.Run(spec.Name, func(b *testing.B) {
			g, err := NewGenerator(spec, math.MaxInt, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok, _ := g.Next(); !ok {
					b.Fatal("generator drained")
				}
			}
		})
	}
}

// BenchmarkGeneratorNextBlock measures one request of mds_0 and prxy_0,
// the replay workloads' specs, drawn in blocks of 512 as the replay
// pass pulls them. One op is one request.
func BenchmarkGeneratorNextBlock(b *testing.B) {
	benchGeneratorBlocks(b, (*Generator).NextBlock)
}

// BenchmarkGeneratorNextSpans is BenchmarkGeneratorNextBlock for the
// span-only blocks the precondition pass pulls.
func BenchmarkGeneratorNextSpans(b *testing.B) {
	benchGeneratorBlocks(b, (*Generator).NextSpans)
}

func benchGeneratorBlocks(b *testing.B, fill func(*Generator, []Request) int) {
	for _, name := range []string{"mds_0", "prxy_0"} {
		spec, _ := WorkloadByName(name)
		spec.WorkingSetPages = scenarioPages
		b.Run(name, func(b *testing.B) {
			g, err := NewGenerator(spec, math.MaxInt, 1)
			if err != nil {
				b.Fatal(err)
			}
			blk := make([]Request, 512)
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; done += len(blk) {
				if fill(g, blk[:min(len(blk), b.N-done)]) == 0 {
					b.Fatal("generator drained")
				}
			}
		})
	}
}
