// Package mathx provides the deterministic numeric substrate used by the
// rest of the repository: seeded random number generation, Gaussian
// sampling, least-squares fitting, and summary statistics.
//
// Everything in this package is deterministic given its seed so that chip
// simulations, trainer fits and experiments are exactly reproducible.
package mathx

import (
	"math"
	"math/bits"
)

// SplitMix64 is a tiny, fast, well-distributed 64-bit PRNG used both as a
// stream generator and as a stateless hash (see Hash64). It is the
// recommended seeder for xoshiro-family generators.
type SplitMix64 struct {
	state uint64
}

// Next returns the next 64-bit value in the stream.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Hash64 applies the SplitMix64 finalizer to x, producing a stateless,
// avalanche-quality 64-bit hash. It is the building block for the
// deterministic per-cell noise fields in the chip simulator.
func Hash64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Mix combines two 64-bit values into one hash. It is not commutative, so
// Mix(a,b) and Mix(b,a) give independent streams.
func Mix(a, b uint64) uint64 {
	return Hash64(a ^ (b*0x9e3779b97f4a7c15 + 0x165667b19e3779f9))
}

// Mix3 combines three 64-bit values into one hash.
func Mix3(a, b, c uint64) uint64 {
	return Mix(Mix(a, b), c)
}

// Mix4 combines four 64-bit values into one hash.
func Mix4(a, b, c, d uint64) uint64 {
	return Mix(Mix3(a, b, c), d)
}

// Xoshiro is a xoshiro256** state held by value: the four words are
// separate fields, not an array, so a caller that copies the state into
// a local for a loop of draws gets four SSA values, kept in registers
// between calls and in its own frame across them, instead of a heap
// array loaded and stored on every draw. Rand steps one, so its stream
// is Rand.Uint64's.
type Xoshiro struct {
	s0, s1, s2, s3 uint64
}

// NewXoshiro returns the state NewRand(seed) starts from, expanded from
// seed with SplitMix64 as the xoshiro authors recommend.
func NewXoshiro(seed uint64) Xoshiro {
	sm := SplitMix64{state: seed}
	x := Xoshiro{sm.Next(), sm.Next(), sm.Next(), sm.Next()}
	// Guard against the (astronomically unlikely) all-zero state.
	if x.s0|x.s1|x.s2|x.s3 == 0 {
		x.s0 = 0x9e3779b97f4a7c15
	}
	return x
}

// Uint64 advances the state and returns the next 64 random bits. It
// stays under the compiler's inlining budget (TestHotPathInlines): the
// replay's page draw and the trace generator's block fill call it per
// draw.
func (x *Xoshiro) Uint64() uint64 {
	s0, s1, s2, s3 := x.s0, x.s1, x.s2^x.s0, x.s3^x.s1
	*x = Xoshiro{s0 ^ s3, s1 ^ s2, s2 ^ s1<<17, bits.RotateLeft64(s3, 45)}
	return bits.RotateLeft64(s1*5, 7) * 9
}

// Rand is a xoshiro256** PRNG: fast, high quality, 256-bit state.
// The zero value is not usable; construct with NewRand.
type Rand struct {
	x         Xoshiro
	spare     float64
	haveSpare bool
}

// NewRand returns a generator whose state is expanded from seed with
// SplitMix64, as recommended by the xoshiro authors.
func NewRand(seed uint64) *Rand {
	r := &Rand{}
	r.Reseed(seed)
	return r
}

// Reseed resets r to exactly the state NewRand(seed) returns, so a hot
// loop that needs a fresh keyed stream per item can reuse one Rand
// instead of allocating one per item.
func (r *Rand) Reseed(seed uint64) {
	r.x = NewXoshiro(seed)
	r.spare, r.haveSpare = 0, false
}

// Uint64 returns the next 64 random bits (see Xoshiro.Uint64).
func (r *Rand) Uint64() uint64 { return r.x.Uint64() }

// Float64 returns a uniform value in [0, 1) with 53 bits of precision:
// m·2^-53 for the draw's top 53 bits m. The scaling is exact; the
// float64 conversion only keeps an inlined caller's 1-u from compiling
// to a fused multiply-subtract, which TestNoFusedMultiplyAdd forbids.
func (x *Xoshiro) Float64() float64 {
	return float64(float64(x.Uint64()>>11) * (1.0 / (1 << 53)))
}

// Float64 returns a uniform value in [0, 1) (see Xoshiro.Float64).
func (r *Rand) Float64() float64 { return r.x.Float64() }

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("mathx: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal variate via the Box-Muller
// transform. Two uniforms are consumed per pair of normals; the spare is
// cached.
func (r *Rand) NormFloat64() float64 {
	if r.haveSpare {
		r.haveSpare = false
		return r.spare
	}
	var u, v float64
	for {
		u = r.Float64()
		if u > 0 {
			break
		}
	}
	v = r.Float64()
	mag := math.Sqrt(-2 * math.Log(u))
	r.spare = mag * math.Sin(2*math.Pi*v)
	r.haveSpare = true
	return mag * math.Cos(2*math.Pi*v)
}
