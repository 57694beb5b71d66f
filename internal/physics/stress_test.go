package physics

import (
	"math"
	"testing"
)

func TestAccelerationFactorRoomTemp(t *testing.T) {
	if af := AccelerationFactor(0.55, RoomTempC); math.Abs(af-1) > 1e-12 {
		t.Fatalf("AF at room temperature = %v, want 1", af)
	}
}

func TestAccelerationFactorMonotone(t *testing.T) {
	prev := 0.0
	for _, temp := range []float64{0, 25, 40, 60, 80, 100} {
		af := AccelerationFactor(0.55, temp)
		if af <= prev {
			t.Fatalf("AF not increasing: AF(%v) = %v after %v", temp, af, prev)
		}
		prev = af
	}
}

func TestAccelerationFactorMagnitude(t *testing.T) {
	// One hour at 80C should correspond to dozens of equivalent
	// room-temperature hours (paper Section IV), i.e. AF in [10, 100].
	af := AccelerationFactor(0.55, 80)
	if af < 10 || af > 100 {
		t.Fatalf("AF(80C) = %v, want within [10, 100]", af)
	}
}

func TestAgedAccumulatesEffectiveHours(t *testing.T) {
	p := QLC()
	s := Stress{}
	s = s.Aged(p, 10, RoomTempC)
	if math.Abs(s.EffRetentionHours-10) > 1e-9 {
		t.Fatalf("room-temp aging: %v hours, want 10", s.EffRetentionHours)
	}
	hot := Stress{}.Aged(p, 1, 80)
	if hot.EffRetentionHours <= 10 {
		t.Fatalf("1h at 80C gave only %v effective hours", hot.EffRetentionHours)
	}
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", name)
		}
	}()
	f()
}

func TestAgedNegativePanics(t *testing.T) {
	p := QLC()
	mustPanic(t, "Aged(-5h)", func() { (Stress{}).Aged(p, -5, 80) })
	mustPanic(t, "Aged(NaN)", func() { (Stress{}).Aged(p, math.NaN(), 80) })
}

func TestCycledAccumulates(t *testing.T) {
	s := Stress{}.Cycled(100).Cycled(0)
	if s.PECycles != 100 {
		t.Fatalf("PECycles = %d", s.PECycles)
	}
	mustPanic(t, "Cycled(-5)", func() { s.Cycled(-5) })
}

func TestEffectiveReadTempUnsetVsZero(t *testing.T) {
	// The zero value means "read temperature never set" and defaults to
	// room; an explicitly set 0°C must be honoured as a genuinely cold
	// read, not silently treated as 25°C.
	if got := (Stress{}).EffectiveReadTemp(); got != RoomTempC {
		t.Fatalf("unset read temp = %v, want room (%v)", got, RoomTempC)
	}
	cold := Stress{}.AtReadTemp(0)
	if got := cold.EffectiveReadTemp(); got != 0 {
		t.Fatalf("explicit 0°C read temp = %v, want 0", got)
	}
	if got := (Stress{}).AtReadTemp(RoomTempC).EffectiveReadTemp(); got != RoomTempC {
		t.Fatalf("explicit room read temp = %v", got)
	}
}

func TestZeroCelsiusReadShiftsDifferFromRoom(t *testing.T) {
	// Regression for the old ReadTempC==0 ⇒ "room" conflation: a 0°C
	// cross-temperature read must shift the programmed states relative to
	// a room-temperature read (and in the opposite direction of a hot
	// read), while an explicit 25°C read must match the unset default.
	m, err := NewModel(TLC(), 42)
	if err != nil {
		t.Fatal(err)
	}
	base := Stress{PECycles: 1000, EffRetentionHours: 100}
	room := envOf(m, 3, 17, base)
	explicitRoom := envOf(m, 3, 17, base.AtReadTemp(RoomTempC))
	cold := envOf(m, 3, 17, base.AtReadTemp(0))
	hot := envOf(m, 3, 17, base.AtReadTemp(70))
	top := m.P.States() - 1
	if room.Mean[top] != explicitRoom.Mean[top] {
		t.Fatalf("explicit 25°C differs from unset default: %v vs %v",
			explicitRoom.Mean[top], room.Mean[top])
	}
	if cold.Mean[top] == room.Mean[top] {
		t.Fatalf("0°C read indistinguishable from room read (mean %v)", cold.Mean[top])
	}
	if !(cold.Mean[top] > room.Mean[top] && hot.Mean[top] < room.Mean[top]) {
		t.Fatalf("cross-temp direction wrong: cold %v, room %v, hot %v",
			cold.Mean[top], room.Mean[top], hot.Mean[top])
	}
}
