package physics

import (
	"math"
	"testing"
)

func TestConstantScheduleEffHours(t *testing.T) {
	p := TLC()
	room := ConstantTemp(RoomTempC).Eval(p)
	if got := room.EffHours(0, 100); math.Abs(got-100) > 1e-9 {
		t.Fatalf("room-temp EffHours(0,100) = %v, want 100", got)
	}
	hot := ConstantTemp(80).Eval(p)
	af := AccelerationFactor(p.ActivationEnergyEV, 80)
	if got := hot.EffHours(10, 11); got != af {
		t.Fatalf("1h at 80C = %v eff hours, want AF = %v", got, af)
	}
	cold := ConstantTemp(0).Eval(p)
	if got := cold.EffHours(0, 100); got >= 100 {
		t.Fatalf("0°C storage should retard retention: %v eff hours for 100", got)
	}
}

func TestSquareWaveEffHoursFullPeriod(t *testing.T) {
	p := TLC()
	ts := SquareWave(25, 70, 24, 0.5)
	e := ts.Eval(p)
	afHot := AccelerationFactor(p.ActivationEnergyEV, 70)
	want := 12*afHot + 12*1.0
	if got := e.EffHours(0, 24); math.Abs(got-want) > 1e-9*want {
		t.Fatalf("full period EffHours = %v, want %v", got, want)
	}
	// Whole periods are translation invariant.
	if a, b := e.EffHours(0, 24), e.EffHours(48, 72); math.Abs(a-b) > 1e-9*a {
		t.Fatalf("period not translation invariant: %v vs %v", a, b)
	}
}

func TestEffHoursMonotoneAndEmpty(t *testing.T) {
	e := SquareWave(25, 55, 24, 0.3).Eval(QLC())
	if got := e.EffHours(7, 7); got != 0 {
		t.Fatalf("empty interval = %v", got)
	}
	prev := 0.0
	for to := 0.5; to < 100; to += 0.5 {
		got := e.EffHours(0, to)
		if got <= prev {
			t.Fatalf("EffHours(0,%v) = %v not increasing past %v", to, got, prev)
		}
		prev = got
	}
}

func TestEffHoursInvalidIntervalPanics(t *testing.T) {
	e := ConstantTemp(25).Eval(TLC())
	mustPanic(t, "EffHours reversed", func() { e.EffHours(5, 4) })
	mustPanic(t, "EffHours NaN", func() { e.EffHours(math.NaN(), 4) })
}

func TestValidateSchedule(t *testing.T) {
	if err := SquareWave(25, 55, 24, 0.3).Validate(); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	for _, bad := range []TempSchedule{
		{BaseC: -200, HotC: 25},
		{BaseC: 25, HotC: math.NaN()},
		{BaseC: 25, HotC: 55, PeriodHours: -1},
		{BaseC: 25, HotC: 55, PeriodHours: 24, HotFrac: 1.5},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("schedule %+v accepted", bad)
		}
	}
}
