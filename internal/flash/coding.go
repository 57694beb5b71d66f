// Package flash simulates a 3D NAND flash chip at the threshold-voltage
// level: one block of layers of wordlines of multi-level cells, with
// program/erase/read operations, per-voltage error accounting and an OOB
// (out-of-band) region on every wordline.
//
// Pages use the inverted reflected-Gray mapping of real chips: the erased
// state reads all-ones, adjacent states differ in exactly one bit, and the
// per-page read-voltage counts are 1 (LSB), 2 (CSB), 4 (CSB2), 8 (MSB) for
// QLC — matching paper Fig. 1 for TLC and the paper's statement that the
// QLC sentinel voltage V8 is read by a single-voltage LSB page read.
package flash

import "fmt"

// Kind selects the cell technology.
type Kind int

const (
	// TLC is triple-level cell flash: 3 bits, 8 states, 7 read voltages.
	TLC Kind = iota
	// QLC is quad-level cell flash: 4 bits, 16 states, 15 read voltages.
	QLC
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case TLC:
		return "TLC"
	case QLC:
		return "QLC"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Bits returns the number of bits stored per cell.
func (k Kind) Bits() int {
	if k == TLC {
		return 3
	}
	return 4
}

// Coding captures the state-to-bits mapping of one cell technology.
type Coding struct {
	bits   int
	states int
	// code[s] is the bit pattern stored when the cell is in state s.
	code []uint8
	// pageBoundaries[p] lists the read-voltage indices (1-based) at which
	// page p's bit flips between adjacent states.
	pageBoundaries [][]int
}

// Page indices by conventional name. PageLSB is always 0; the page read
// with the most voltages (MSB) is always Bits-1.
const (
	PageLSB  = 0
	PageCSB  = 1
	PageCSB2 = 2 // QLC only
)

// NewCoding builds the coding tables for bits-per-cell bits.
func NewCoding(bits int) *Coding {
	states := 1 << bits
	c := &Coding{
		bits:   bits,
		states: states,
		code:   make([]uint8, states),
	}
	mask := uint8(states - 1)
	for s := 0; s < states; s++ {
		gray := uint8(s) ^ uint8(s>>1)
		c.code[s] = ^gray & mask // erased state stores all ones
	}
	c.pageBoundaries = make([][]int, bits)
	for p := 0; p < bits; p++ {
		for v := 1; v < states; v++ {
			if c.PageBit(v-1, p) != c.PageBit(v, p) {
				c.pageBoundaries[p] = append(c.pageBoundaries[p], v)
			}
		}
	}
	return c
}

// Bits returns bits per cell.
func (c *Coding) Bits() int { return c.bits }

// States returns the number of voltage states.
func (c *Coding) States() int { return c.states }

// NumVoltages returns the number of read voltages (states-1). Voltage
// indices are 1-based: V1..V(states-1), as in the paper.
func (c *Coding) NumVoltages() int { return c.states - 1 }

// Code returns the stored bit pattern of state s.
func (c *Coding) Code(s int) uint8 { return c.code[s] }

// PageBit returns the bit of page p stored by state s. Page 0 is the LSB
// page (one read voltage), page bits-1 is the MSB page.
//
// The LSB page is the *top* bit of the inverted Gray code: it flips only
// once across the state ladder, exactly like V4 for TLC / V8 for QLC in
// the paper.
func (c *Coding) PageBit(s, p int) int {
	shift := c.bits - 1 - p
	return int(c.code[s]>>shift) & 1
}

// PageVoltages returns the 1-based read-voltage indices needed to read
// page p, in ascending order. The returned slice must not be modified.
func (c *Coding) PageVoltages(p int) []int { return c.pageBoundaries[p] }

// SentinelVoltage returns the voltage index the paper designates as the
// sentinel voltage: the single boundary of the LSB page (V4 for TLC, V8
// for QLC).
func (c *Coding) SentinelVoltage() int { return c.pageBoundaries[PageLSB][0] }

// PageOfVoltage returns the page whose read applies voltage v (1-based).
// Every voltage belongs to exactly one page.
func (c *Coding) PageOfVoltage(v int) int {
	for p := 0; p < c.bits; p++ {
		for _, b := range c.pageBoundaries[p] {
			if b == v {
				return p
			}
		}
	}
	return -1
}

// ReadBit decodes page p's bit from the number of applied read voltages
// that lie at or below the cell's threshold voltage. below is the count of
// page-p voltages V with V <= Vth; the bit starts at state 0's value and
// flips once per boundary crossed.
func (c *Coding) ReadBit(p, below int) int {
	return c.PageBit(0, p) ^ (below & 1)
}

// PageName returns the conventional page name for index p given the cell
// bits ("LSB", "CSB", "CSB2", "MSB").
func (c *Coding) PageName(p int) string {
	switch {
	case p == 0:
		return "LSB"
	case p == c.bits-1:
		return "MSB"
	case p == 1:
		return "CSB"
	case p == 2:
		return "CSB2"
	default:
		return fmt.Sprintf("P%d", p)
	}
}
