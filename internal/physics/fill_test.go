package physics

import (
	"math"
	"testing"
)

// The batched kernels must be bit-identical to their scalar counterparts:
// the read stack's byte-identity guarantee rests on it.

func fillTestModel(t *testing.T, kind func() Params, seed uint64) *Model {
	t.Helper()
	m, err := NewModel(kind(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNoiseStreamMatchesReadNoise(t *testing.T) {
	for _, seed := range []uint64{0, 1, 0xdeadbeef} {
		m := fillTestModel(t, TLC, seed)
		for _, readSeed := range []uint64{0, 42, 1 << 60} {
			ns := m.Noise(readSeed)
			for cell := 0; cell < 257; cell++ {
				want := m.ReadNoise(readSeed, cell)
				if got := ns.At(cell); got != want {
					t.Fatalf("seed %d readSeed %d cell %d: NoiseStream %v != ReadNoise %v",
						seed, readSeed, cell, got, want)
				}
			}
		}
	}
	// Zero-sigma models short-circuit in both paths.
	p := QLC()
	p.ReadNoiseSigma = 0
	m, err := NewModel(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Noise(9).At(5); got != 0 {
		t.Fatalf("zero-sigma NoiseStream.At = %v, want 0", got)
	}
}

func TestFillCellZMatchesCellZ(t *testing.T) {
	for _, mk := range []func() Params{TLC, QLC} {
		m := fillTestModel(t, mk, 11)
		dst := make([]float32, 301)
		for _, g := range []uint64{0, 5, 999} {
			for _, epoch := range []uint64{1, 2} {
				m.FillCellZ(g, epoch, dst)
				for i := range dst {
					want := float32(m.CellZ(g, i, epoch))
					if dst[i] != want {
						t.Fatalf("wl %d epoch %d cell %d: FillCellZ %v != CellZ %v",
							g, epoch, i, dst[i], want)
					}
				}
			}
		}
	}
}

func TestFillCellZ64MatchesCellZ(t *testing.T) {
	for _, mk := range []func() Params{TLC, QLC} {
		m := fillTestModel(t, mk, 13)
		dst := make([]float64, 283)
		for _, g := range []uint64{0, 77, 999} {
			for _, epoch := range []uint64{1, 4} {
				m.FillCellZ64(g, epoch, dst)
				for i := range dst {
					want := m.CellZ(g, i, epoch)
					if dst[i] != want || math.IsNaN(dst[i]) {
						t.Fatalf("wl %d epoch %d cell %d: FillCellZ64 %v != CellZ %v",
							g, epoch, i, dst[i], want)
					}
				}
			}
		}
	}
}
