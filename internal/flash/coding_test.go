package flash

import (
	"testing"
	"testing/quick"
)

func TestTLCCodingMatchesPaperFig1(t *testing.T) {
	// Paper Fig. 1: S0..S7 store 111,110,100,101,001,000,010,011 in
	// (LSB, CSB, MSB) order.
	c := NewCoding(3)
	want := [][3]int{
		{1, 1, 1}, {1, 1, 0}, {1, 0, 0}, {1, 0, 1},
		{0, 0, 1}, {0, 0, 0}, {0, 1, 0}, {0, 1, 1},
	}
	for s, w := range want {
		got := [3]int{c.PageBit(s, 0), c.PageBit(s, 1), c.PageBit(s, 2)}
		if got != w {
			t.Errorf("state %d bits = %v, want %v", s, got, w)
		}
	}
}

func TestTLCPageVoltages(t *testing.T) {
	c := NewCoding(3)
	cases := []struct {
		page int
		want []int
	}{
		{PageLSB, []int{4}},
		{PageCSB, []int{2, 6}},
		{2, []int{1, 3, 5, 7}}, // MSB
	}
	for _, tc := range cases {
		got := c.PageVoltages(tc.page)
		if len(got) != len(tc.want) {
			t.Fatalf("page %d voltages = %v, want %v", tc.page, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("page %d voltages = %v, want %v", tc.page, got, tc.want)
			}
		}
	}
}

func TestQLCPageVoltageCounts(t *testing.T) {
	// QLC: LSB 1 voltage (V8), CSB 2, CSB2 4, MSB 8 — the paper says "up
	// to eight voltages are used to read the MSB page" and that the
	// sentinel voltage read (V8) is an LSB page read.
	c := NewCoding(4)
	wantCounts := []int{1, 2, 4, 8}
	for p, w := range wantCounts {
		if got := len(c.PageVoltages(p)); got != w {
			t.Errorf("QLC page %d uses %d voltages, want %d", p, got, w)
		}
	}
	if c.SentinelVoltage() != 8 {
		t.Errorf("QLC sentinel voltage = V%d, want V8", c.SentinelVoltage())
	}
	if NewCoding(3).SentinelVoltage() != 4 {
		t.Error("TLC sentinel voltage should be V4")
	}
}

func TestCodingGrayAdjacency(t *testing.T) {
	// Property: adjacent states differ in exactly one bit (Gray code), so
	// a single-boundary misread flips exactly one page bit.
	f := func(bitsRaw, sRaw uint8) bool {
		bits := int(bitsRaw%3) + 2 // 2..4
		c := NewCoding(bits)
		s := int(sRaw) % (c.States() - 1)
		diff := c.code[s] ^ c.code[s+1]
		return diff != 0 && diff&(diff-1) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCodingBoundariesPartitionVoltages(t *testing.T) {
	// Property: every read voltage belongs to exactly one page.
	for _, bits := range []int{2, 3, 4} {
		c := NewCoding(bits)
		seen := make(map[int]int)
		for p := 0; p < bits; p++ {
			for _, v := range c.PageVoltages(p) {
				seen[v]++
			}
		}
		if len(seen) != c.NumVoltages() {
			t.Fatalf("bits=%d: %d voltages covered, want %d",
				bits, len(seen), c.NumVoltages())
		}
		for v, n := range seen {
			if n != 1 {
				t.Fatalf("bits=%d: voltage %d on %d pages", bits, v, n)
			}
		}
	}
}

func TestReadBitRoundTrip(t *testing.T) {
	// Property: for a cell in state s with perfect sensing, the number of
	// page-p voltages at or below its Vth decodes back to PageBit(s, p).
	for _, bits := range []int{3, 4} {
		c := NewCoding(bits)
		for s := 0; s < c.States(); s++ {
			for p := 0; p < bits; p++ {
				below := 0
				for _, v := range c.PageVoltages(p) {
					if v <= s { // Vth of state s lies above boundary v iff v <= s
						below++
					}
				}
				if got := c.ReadBit(p, below); got != c.PageBit(s, p) {
					t.Fatalf("bits=%d state=%d page=%d: ReadBit=%d want %d",
						bits, s, p, got, c.PageBit(s, p))
				}
			}
		}
	}
}

func TestErasedStateAllOnes(t *testing.T) {
	for _, bits := range []int{2, 3, 4} {
		c := NewCoding(bits)
		if c.code[0] != uint8(1<<bits)-1 {
			t.Errorf("bits=%d erased code = %b, want all ones", bits, c.code[0])
		}
	}
}

func TestPageNames(t *testing.T) {
	q := NewCoding(4)
	names := []string{"LSB", "CSB", "CSB2", "MSB"}
	for p, w := range names {
		if got := q.PageName(p); got != w {
			t.Errorf("QLC page %d name = %q, want %q", p, got, w)
		}
	}
	tl := NewCoding(3)
	if tl.PageName(2) != "MSB" || tl.PageName(1) != "CSB" || tl.PageName(0) != "LSB" {
		t.Error("TLC page names wrong")
	}
}

func TestKindString(t *testing.T) {
	if TLC.String() != "TLC" || QLC.String() != "QLC" {
		t.Fatal("Kind.String wrong")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind should still print")
	}
	if TLC.Bits() != 3 || QLC.Bits() != 4 {
		t.Fatal("Kind.Bits wrong")
	}
}
