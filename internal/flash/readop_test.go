package flash

import (
	"sync"
	"testing"

	"sentinel3d/internal/mathx"
	"sentinel3d/internal/physics"
)

// readOpTestChip builds a small programmed, stressed chip. cells need not
// be a multiple of 64 so the word-fill tails are exercised.
func readOpTestChip(t testing.TB, kind Kind, cacheZ bool, cells int) *Chip {
	t.Helper()
	cfg := DefaultConfig(kind)
	cfg.Layers = 4
	cfg.WordlinesPerLayer = 2
	cfg.CellsPerWordline = cells
	cfg.CacheZ = cacheZ
	c := MustNew(cfg)
	r := mathx.NewRand(7)
	for wl := 0; wl < cfg.WordlinesPerBlock(); wl++ {
		c.ProgramRandom(wl, r)
	}
	c.Cycle(3000)
	c.Age(100, 30)
	return c
}

// The reference implementations below are the pre-kernel bit-by-bit read
// loops; the fused word-fill kernels must reproduce them exactly.

func refSense(vths []float64, rv float64) Bitmap {
	out := NewBitmap(len(vths))
	for i, vth := range vths {
		if vth >= rv {
			out.Set(i, true)
		}
	}
	return out
}

func refReadPage(c *Chip, vths []float64, p int, o Offsets) Bitmap {
	pv := c.Coding().PageVoltages(p)
	volts := make([]float64, len(pv))
	for i, v := range pv {
		volts[i] = c.voltage(v, o)
	}
	out := NewBitmap(len(vths))
	for i, vth := range vths {
		below := 0
		for _, rv := range volts {
			if vth >= rv {
				below++
			} else {
				break
			}
		}
		if c.Coding().ReadBit(p, below) == 1 {
			out.Set(i, true)
		}
	}
	return out
}

func refTrueBits(c *Chip, states []uint8, p int) Bitmap {
	out := NewBitmap(len(states))
	for i, s := range states {
		if c.Coding().PageBit(int(s), p) == 1 {
			out.Set(i, true)
		}
	}
	return out
}

func refVoltageErrors(vths []float64, states []uint8, rv float64, v int) (up, down int) {
	for i, vth := range vths {
		trueBelow := int(states[i]) <= v-1
		readBelow := vth < rv
		if trueBelow && !readBelow {
			up++
		} else if !trueBelow && readBelow {
			down++
		}
	}
	return up, down
}

func bitmapsEqual(a, b Bitmap) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestReadOpMatchesReference(t *testing.T) {
	for _, kind := range []Kind{TLC, QLC} {
		for _, cacheZ := range []bool{true, false} {
			for _, cells := range []int{200, 256} {
				c := readOpTestChip(t, kind, cacheZ, cells)
				nv := c.Coding().NumVoltages()
				offsets := make(Offsets, nv)
				for v := 1; v <= nv; v++ {
					offsets[v-1] = float64(v%3-1) * 0.3
				}
				for _, readSeed := range []uint64{0, 42, 1 << 50} {
					op := c.BeginRead(1, readSeed)
					// The reference is the eager vector: a lazy handle's
					// own vth holds only the noise its queries drew.
					vths := c.vthAll(1, readSeed, nil, new(physics.WLEnv))
					states := c.States(1)

					for v := 1; v <= nv; v++ {
						for _, off := range []float64{-0.7, 0, 0.4} {
							rv := c.voltage(v, Offsets(nil)) + off
							if got, want := op.Sense(v, off), refSense(vths, rv); !bitmapsEqual(got, want) {
								t.Fatalf("%v cacheZ=%v cells=%d seed=%d: Sense(v=%d, off=%v) mismatch",
									kind, cacheZ, cells, readSeed, v, off)
							}
							gu, gd := op.VoltageErrors(v, off)
							wu, wd := refVoltageErrors(vths, states, rv, v)
							if gu != wu || gd != wd {
								t.Fatalf("%v cacheZ=%v cells=%d seed=%d: VoltageErrors(v=%d, off=%v) = (%d,%d), want (%d,%d)",
									kind, cacheZ, cells, readSeed, v, off, gu, gd, wu, wd)
							}
						}
					}
					for p := 0; p < c.Coding().Bits(); p++ {
						for _, o := range []Offsets{nil, offsets} {
							if got, want := op.ReadPage(p, o), refReadPage(c, vths, p, o); !bitmapsEqual(got, want) {
								t.Fatalf("%v cacheZ=%v cells=%d seed=%d: ReadPage(p=%d, o=%v) mismatch",
									kind, cacheZ, cells, readSeed, p, o)
							}
						}
						if got, want := c.TrueBits(1, p), refTrueBits(c, states, p); !bitmapsEqual(got, want) {
							t.Fatalf("%v cacheZ=%v cells=%d: TrueBits(p=%d) mismatch", kind, cacheZ, cells, p)
						}
						want := refReadPage(c, vths, p, offsets).XorCount(refTrueBits(c, states, p))
						if got := op.CountPageErrors(p, offsets); got != want {
							t.Fatalf("%v cacheZ=%v cells=%d seed=%d: CountPageErrors(p=%d) = %d, want %d",
								kind, cacheZ, cells, readSeed, p, got, want)
						}
						if got := c.CountPageErrors(1, p, offsets, readSeed); got != want {
							t.Fatalf("chip.CountPageErrors(p=%d) = %d, want %d", p, got, want)
						}
					}

					// One-shot chip wrappers agree with the open handle.
					sv := c.Coding().SentinelVoltage()
					if got := c.Sense(1, sv, 0.1, readSeed); !bitmapsEqual(got, op.Sense(sv, 0.1)) {
						t.Fatalf("chip.Sense disagrees with ReadOp.Sense")
					}
					PutBitmap(c.Sense(1, sv, 0.1, readSeed))
					op.Close()
					op.Close() // double Close is a documented no-op
				}
			}
		}
	}
}

// TestReadOpConcurrent hammers pooled ReadOps and bitmap recycling from
// many goroutines; run under -race it proves the pools never share a
// buffer between concurrent readers, and the result checks prove no
// cross-contamination.
func TestReadOpConcurrent(t *testing.T) {
	c := readOpTestChip(t, TLC, true, 256)
	msb := c.Coding().Bits() - 1
	sv := c.Coding().SentinelVoltage()
	nwl := c.Config().WordlinesPerBlock()

	type key struct {
		wl   int
		seed uint64
	}
	const iters = 64
	want := make(map[key]int)
	for wl := 0; wl < nwl; wl++ {
		for s := 0; s < iters; s++ {
			k := key{wl, uint64(s)}
			want[k] = c.CountPageErrors(wl, msb, nil, k.seed)
		}
	}

	var wg sync.WaitGroup
	errc := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for s := 0; s < iters; s++ {
				wl := (g + s) % nwl
				k := key{wl, uint64(s)}
				op := c.BeginRead(wl, k.seed)
				got := op.CountPageErrors(msb, nil)
				bm := op.Sense(sv, 0)
				pop := bm.PopCount()
				op.Close()
				PutBitmap(c.Sense(wl, sv, 0, k.seed))
				if got != want[k] {
					errc <- &addrErr{wl, k.seed, got, want[k]}
					return
				}
				if bm2 := c.Sense(wl, sv, 0, k.seed); bm2.PopCount() != pop {
					errc <- &addrErr{wl, k.seed, bm2.PopCount(), pop}
					PutBitmap(bm2)
					return
				} else {
					PutBitmap(bm2)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

type addrErr struct {
	wl        int
	seed      uint64
	got, want int
}

func (e *addrErr) Error() string {
	return "concurrent read mismatch"
}

// Steady-state allocation discipline: on a pre-warmed chip a Sense or
// ReadPage whose result is recycled performs (amortized) no heap
// allocations; a small budget absorbs sync.Pool noise across GC cycles.
func TestReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; alloc counts are meaningless")
	}
	c := readOpTestChip(t, TLC, true, 4096)
	sv := c.Coding().SentinelVoltage()
	msb := c.Coding().Bits() - 1

	var seed uint64
	warm := func(f func()) float64 {
		f() // prime the pools
		return testing.AllocsPerRun(20, f)
	}
	if a := warm(func() {
		seed++
		PutBitmap(c.Sense(0, sv, 0, seed))
	}); a > 2 {
		t.Errorf("Sense allocates %.1f/op on a warm chip, want <= 2", a)
	}
	if a := warm(func() {
		seed++
		PutBitmap(c.ReadPage(0, msb, nil, seed))
	}); a > 2 {
		t.Errorf("ReadPage allocates %.1f/op on a warm chip, want <= 2", a)
	}
	rng := mathx.NewRand(99)
	if a := warm(func() {
		c.ProgramRandom(1, rng)
	}); a > 2 {
		t.Errorf("ProgramRandom allocates %.1f/op on a warm chip, want <= 2", a)
	}
}
