package flash

import "math/bits"

// Bitmap is a dense bit vector used for page readouts and single-voltage
// sense results.
type Bitmap []uint64

// NewBitmap returns a zeroed bitmap holding n bits.
func NewBitmap(n int) Bitmap {
	return make(Bitmap, (n+63)/64)
}

// Get reports bit i.
func (b Bitmap) Get(i int) bool {
	return b[i/64]&(1<<(uint(i)%64)) != 0
}

// Set sets bit i to v.
func (b Bitmap) Set(i int, v bool) {
	if v {
		b[i/64] |= 1 << (uint(i) % 64)
	} else {
		b[i/64] &^= 1 << (uint(i) % 64)
	}
}

// XorCount returns the number of positions where b and o differ. The
// bitmaps must be the same length.
func (b Bitmap) XorCount(o Bitmap) int {
	n := 0
	for i, w := range b {
		n += bits.OnesCount64(w ^ o[i])
	}
	return n
}

// XorCountRange returns the number of differing positions within
// [start, end): whole 64-bit words in the interior, masked popcounts at
// the edges.
func (b Bitmap) XorCountRange(o Bitmap, start, end int) int {
	if start >= end {
		return 0
	}
	sw, ew := start>>6, (end-1)>>6
	headMask := ^uint64(0) << (uint(start) & 63)
	tailMask := ^uint64(0) >> (63 - (uint(end-1) & 63))
	if sw == ew {
		return bits.OnesCount64((b[sw] ^ o[sw]) & headMask & tailMask)
	}
	n := bits.OnesCount64((b[sw] ^ o[sw]) & headMask)
	for i := sw + 1; i < ew; i++ {
		n += bits.OnesCount64(b[i] ^ o[i])
	}
	return n + bits.OnesCount64((b[ew]^o[ew])&tailMask)
}

// PopCountRange returns the number of set bits within [start, end).
func (b Bitmap) PopCountRange(start, end int) int {
	if start >= end {
		return 0
	}
	sw, ew := start>>6, (end-1)>>6
	headMask := ^uint64(0) << (uint(start) & 63)
	tailMask := ^uint64(0) >> (63 - (uint(end-1) & 63))
	if sw == ew {
		return bits.OnesCount64(b[sw] & headMask & tailMask)
	}
	n := bits.OnesCount64(b[sw] & headMask)
	for i := sw + 1; i < ew; i++ {
		n += bits.OnesCount64(b[i])
	}
	return n + bits.OnesCount64(b[ew]&tailMask)
}
