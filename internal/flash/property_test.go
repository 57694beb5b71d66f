package flash

import (
	"testing"
	"testing/quick"

	"sentinel3d/internal/mathx"
	"sentinel3d/internal/physics"
)

// TestPageReadMatchesSenseParity checks the fundamental sensing identity:
// a page readout equals the parity combination of single-voltage senses at
// the page's boundaries (all taken within one read operation).
func TestPageReadMatchesSenseParity(t *testing.T) {
	c := MustNew(testConfig(QLC))
	rng := mathx.NewRand(17)
	c.ProgramRandom(2, rng)
	c.Cycle(2000)
	c.Age(5000, physics.RoomTempC)
	coding := c.Coding()

	f := func(seedRaw uint16, pRaw uint8) bool {
		p := int(pRaw) % coding.Bits()
		seed := uint64(seedRaw) + 1
		read := c.ReadPage(2, p, nil, seed)
		// Reconstruct from senses at the same read seed.
		senses := make([]Bitmap, 0, len(coding.PageVoltages(p)))
		for _, v := range coding.PageVoltages(p) {
			senses = append(senses, c.Sense(2, v, 0, seed))
		}
		start := coding.PageBit(0, p)
		for i := 0; i < c.Config().CellsPerWordline; i++ {
			below := 0
			for _, s := range senses {
				if s.Get(i) {
					below++
				}
			}
			want := start^(below&1) == 1
			if read.Get(i) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal(err)
	}
}

// TestOffsetsShiftMonotone: lowering a boundary's voltage can only move
// cells from "below" to "above" classification, never the reverse (same
// read seed).
func TestOffsetsShiftMonotone(t *testing.T) {
	c := MustNew(testConfig(QLC))
	rng := mathx.NewRand(19)
	c.ProgramRandom(1, rng)
	c.Age(8760, physics.RoomTempC)
	hi := c.Sense(1, 8, 0, 7)
	lo := c.Sense(1, 8, -20, 7)
	for i := 0; i < c.Config().CellsPerWordline; i++ {
		if hi.Get(i) && !lo.Get(i) {
			t.Fatalf("cell %d above V8+0 but below V8-20 in the same read", i)
		}
	}
}

// TestRBERInvariantUnderReprogram: reprogramming the same data pattern
// redraws cell offsets, but the statistical RBER stays in the same band.
func TestRBERInvariantUnderReprogram(t *testing.T) {
	c := MustNew(testConfig(QLC))
	rng := mathx.NewRand(23)
	states := make([]uint8, c.Config().CellsPerWordline)
	for i := range states {
		states[i] = uint8(rng.Intn(16))
	}
	measure := func() float64 {
		if err := c.ProgramStates(0, states); err != nil {
			t.Fatal(err)
		}
		c.SetStress(physics.Stress{PECycles: 1000, EffRetentionHours: 8760})
		return c.PageRBER(0, 3, nil, 99)
	}
	a := measure()
	b := measure()
	if a == 0 || b == 0 {
		t.Fatal("degenerate RBER")
	}
	if b > a*2 || a > b*2 {
		t.Fatalf("reprogram changed RBER too much: %v vs %v", a, b)
	}
}
