package ecc

import (
	"math"
	"testing"
)

func TestSensingLevels(t *testing.T) {
	if n := len(HardSensing().Levels()); n != 1 {
		t.Fatalf("hard sensing has %d levels, want 1", n)
	}
	s2 := SoftSensing(2, 5)
	if n := len(s2.Levels()); n != 3 {
		t.Fatalf("2-bit sensing has %d levels, want 3", n)
	}
	s3 := SoftSensing(3, 5)
	lv := s3.Levels()
	if len(lv) != 7 {
		t.Fatalf("3-bit sensing has %d levels, want 7", len(lv))
	}
	// Levels are centred and ascending.
	if lv[3] != 0 {
		t.Fatalf("middle level = %v, want 0", lv[3])
	}
	for i := 1; i < len(lv); i++ {
		if lv[i]-lv[i-1] != 5 {
			t.Fatalf("level spacing wrong: %v", lv)
		}
	}
}

func TestLLRTableStructure(t *testing.T) {
	s := SoftSensing(3, 8)
	tab := s.LLRTable(128, 22)
	if len(tab) != 8 {
		t.Fatalf("table has %d regions, want 8", len(tab))
	}
	// Monotone decreasing: lower regions favour the below state.
	for i := 1; i < len(tab); i++ {
		if tab[i] >= tab[i-1] {
			t.Fatalf("LLR table not decreasing: %v", tab)
		}
	}
	// Symmetric about the centre.
	for i := 0; i < len(tab)/2; i++ {
		if math.Abs(tab[i]+tab[len(tab)-1-i]) > 1e-9 {
			t.Fatalf("LLR table not antisymmetric: %v", tab)
		}
	}
	// Outer regions are confident, inner ones are not.
	if math.Abs(tab[0]) <= math.Abs(tab[3]) {
		t.Fatalf("outer region less confident than inner: %v", tab)
	}
}

func TestLLRTableClamped(t *testing.T) {
	s := SoftSensing(2, 30)
	tab := s.LLRTable(200, 5) // extremely separated states
	for _, v := range tab {
		if math.Abs(v) > 20+1e-12 {
			t.Fatalf("LLR %v exceeds clamp", v)
		}
	}
}

func TestHardLLRTable(t *testing.T) {
	tab := HardSensing().LLRTable(128, 22)
	if len(tab) != 2 {
		t.Fatalf("hard table has %d regions, want 2", len(tab))
	}
	if tab[0] <= 0 || tab[1] >= 0 {
		t.Fatalf("hard LLR signs wrong: %v", tab)
	}
}

func TestGaussMass(t *testing.T) {
	// Full line integrates to 1.
	if m := gaussMass(math.Inf(-1), math.Inf(1), 0, 1); math.Abs(m-1) > 1e-12 {
		t.Fatalf("full mass = %v", m)
	}
	// Central 1-sigma interval ~68.3%.
	if m := gaussMass(-1, 1, 0, 1); math.Abs(m-0.6827) > 1e-3 {
		t.Fatalf("1-sigma mass = %v", m)
	}
}
