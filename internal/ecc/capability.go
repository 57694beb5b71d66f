// Package ecc provides the error-correction substrate: a fast
// capability-threshold model used by the read-retry controller, and a real
// LDPC code (irregular repeat-accumulate construction) with a normalized
// min-sum decoder and hard / 2-bit / 3-bit soft sensing inputs, used to
// reproduce the paper's Figure 19.
package ecc

import (
	"fmt"

	"sentinel3d/internal/flash"
)

// CapabilityModel represents a hard-decision ECC by its correction
// capability: a frame of FrameBits data bits decodes if and only if it
// holds at most T raw bit errors. This is the standard abstraction for
// retry studies, where only pass/fail matters.
type CapabilityModel struct {
	// FrameBits is the number of data bits protected per ECC frame.
	FrameBits int
	// T is the maximum number of correctable bit errors per frame.
	T int
}

// Validate reports parameter errors.
func (m CapabilityModel) Validate() error {
	if m.FrameBits <= 0 || m.T < 0 {
		return fmt.Errorf("ecc: invalid capability model %+v", m)
	}
	return nil
}

// DecodePage reports whether every frame of a page decodes, given the
// per-cell error bitmap of a page read (bit i set = cell i's page bit was
// misread) over the first userBits cells.
func (m CapabilityModel) DecodePage(errs flash.Bitmap, userBits int) bool {
	for start := 0; start < userBits; start += m.FrameBits {
		if errs.PopCountRange(start, min(start+m.FrameBits, userBits)) > m.T {
			return false
		}
	}
	return true
}
