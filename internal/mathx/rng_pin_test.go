package mathx

import (
	"math"
	"testing"
)

// TestRandStreamsPinned pins the Rand streams every seeded simulation
// draws from: 4096 values of Uint64, Float64 and Intn at several n, from
// fixed seeds, folded into one digest each. A reshaped Uint64 or Intn
// (say, to fit the compiler's inlining budget) must keep every value;
// any drift moves a digest, and with it every golden the chip data,
// traces and samplers feed.
func TestRandStreamsPinned(t *testing.T) {
	digest := func(seed uint64, draw func(r *Rand) uint64) uint64 {
		r := NewRand(seed)
		var h uint64
		for i := 0; i < 4096; i++ {
			h = Hash64(h ^ draw(r))
		}
		return h
	}
	intn := func(n int) func(r *Rand) uint64 {
		return func(r *Rand) uint64 { return uint64(r.Intn(n)) }
	}
	cases := []struct {
		name string
		seed uint64
		draw func(r *Rand) uint64
		want uint64
	}{
		{"Uint64/seed0", 0, (*Rand).Uint64, 0xef10ff2d73de714e},
		{"Uint64/seed1", 1, (*Rand).Uint64, 0x510874d6bdbebaa4},
		{"Uint64/seed-max", math.MaxUint64, (*Rand).Uint64, 0x6914892c8aa5f13a},
		{"Float64/seed1", 1, func(r *Rand) uint64 { return math.Float64bits(r.Float64()) }, 0xcc3403fe1df32a05},
		{"Float64/seed42", 42, func(r *Rand) uint64 { return math.Float64bits(r.Float64()) }, 0x3cbc7d8d1a72131c},
		{"Intn(1)", 1, intn(1), 0x99a100ae39184272},
		{"Intn(2)", 1, intn(2), 0x9d45c1ec821c892a},
		{"Intn(7)", 7, intn(7), 0x839344e996533cbe},
		{"Intn(8)", 7, intn(8), 0x9533a1af74d9c721},
		{"Intn(16)", 3, intn(16), 0xfd7c47af9249bbf3},
		{"Intn(1000)", 3, intn(1000), 0x9d56c2f306c87d10},
		{"Intn(1<<40+3)", 5, intn(1<<40 + 3), 0x8c0f8230ff14ae7d},
		{"Intn(MaxInt64)", 5, intn(math.MaxInt64), 0x3014c23c3975d7af},
	}
	for _, c := range cases {
		if got := digest(c.seed, c.draw); got != c.want {
			t.Errorf("%s: digest %#016x, want %#016x", c.name, got, c.want)
		}
	}
	// The head of the seed-1 stream, spelled out.
	r := NewRand(1)
	head := []uint64{0xb3f2af6d0fc710c5, 0x853b559647364cea, 0x92f89756082a4514}
	for i, want := range head {
		if got := r.Uint64(); got != want {
			t.Errorf("NewRand(1) value %d = %#016x, want %#016x", i, got, want)
		}
	}
}
