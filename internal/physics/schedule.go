package physics

import (
	"fmt"
	"math"
)

// TempSchedule describes the ambient temperature of a device over its
// simulated life as a periodic square wave: the first HotFrac of every
// PeriodHours-long period is spent at HotC, the remainder at BaseC.
// Degenerate settings (zero period, HotFrac outside (0,1), or
// BaseC == HotC) give a constant temperature. The zero value is a
// constant 0°C — schedules are always constructed explicitly, so a cold
// device is expressible (see Stress.ReadTempSet for the same rule on
// read temperature).
type TempSchedule struct {
	// BaseC is the ambient temperature outside the hot window.
	BaseC float64

	// HotC is the ambient temperature inside the hot window.
	HotC float64

	// PeriodHours is the length of one schedule period.
	PeriodHours float64

	// HotFrac is the fraction of each period spent at HotC, in [0,1].
	HotFrac float64
}

// ConstantTemp returns a schedule that holds tempC forever.
func ConstantTemp(tempC float64) TempSchedule {
	return TempSchedule{BaseC: tempC, HotC: tempC}
}

// SquareWave returns a periodic schedule spending hotFrac of every
// periodHours at hotC and the rest at baseC.
func SquareWave(baseC, hotC, periodHours, hotFrac float64) TempSchedule {
	return TempSchedule{BaseC: baseC, HotC: hotC, PeriodHours: periodHours, HotFrac: hotFrac}
}

// constant reports whether the schedule never leaves BaseC's band.
func (ts TempSchedule) constant() bool {
	return ts.BaseC == ts.HotC || ts.PeriodHours <= 0 || ts.HotFrac <= 0 || ts.HotFrac >= 1
}

// Validate rejects schedules that cannot be evaluated.
func (ts TempSchedule) Validate() error {
	for _, c := range [...]float64{ts.BaseC, ts.HotC} {
		if math.IsNaN(c) || c < -60 || c > 150 {
			return fmt.Errorf("physics: schedule temperature %g°C out of range [-60,150]", c)
		}
	}
	if math.IsNaN(ts.PeriodHours) || ts.PeriodHours < 0 {
		return fmt.Errorf("physics: negative schedule period %g h", ts.PeriodHours)
	}
	if math.IsNaN(ts.HotFrac) || ts.HotFrac < 0 || ts.HotFrac > 1 {
		return fmt.Errorf("physics: schedule hot fraction %g out of [0,1]", ts.HotFrac)
	}
	return nil
}

// Eval pre-resolves the Arrhenius acceleration factors of the
// schedule's two temperature bands so EffHours stays cheap enough for
// per-read use in the replay hot path.
func (ts TempSchedule) Eval(p Params) ScheduleEval {
	var e ScheduleEval
	e.afBase = AccelerationFactor(p.ActivationEnergyEV, ts.BaseC)
	e.afHot = AccelerationFactor(p.ActivationEnergyEV, ts.HotC)
	if ts.constant() {
		if ts.HotFrac >= 1 {
			e.afBase = e.afHot
		}
		e.hotPerPeriod = 0
		e.period = 0
	} else {
		e.period = ts.PeriodHours
		e.hotPerPeriod = ts.HotFrac * ts.PeriodHours
	}
	return e
}

// ScheduleEval is a TempSchedule bound to one cell technology's
// activation energy. EffHours converts a wall-clock interval of device
// life into effective room-temperature retention hours in closed form —
// no per-step accumulation — so the result depends only on the interval
// endpoints.
type ScheduleEval struct {
	afBase, afHot float64
	period        float64
	hotPerPeriod  float64
}

// hotHoursBefore returns the cumulative hot-band hours in [0, t].
func (e ScheduleEval) hotHoursBefore(t float64) float64 {
	n := math.Floor(t / e.period)
	rem := t - float64(n*e.period)
	return float64(n*e.hotPerPeriod) + math.Min(rem, e.hotPerPeriod)
}

// MaxRate returns the schedule's fastest effective-hours accrual rate —
// an upper bound on d(EffHours)/dt — so consumers can bound how soon a
// retention threshold can possibly be crossed and skip recomputation
// until then.
func (e ScheduleEval) MaxRate() float64 {
	if e.hotPerPeriod > 0 && e.afHot > e.afBase {
		return e.afHot
	}
	return e.afBase
}

// EffHours returns the effective room-temperature retention hours
// accrued over device-hours [from, to]. It is a pure function of the
// two endpoints: for any split point m in [from, to], the pair
// (EffHours(from, m), EffHours(m, to)) describes the same physical
// interval, but consumers that care about exactness must query the full
// interval rather than summing parts (floating-point addition is not
// associative) — which is exactly what RetentionClock does. A reversed
// or NaN interval panics, matching Stress.Aged.
func (e ScheduleEval) EffHours(from, to float64) float64 {
	if math.IsNaN(from) || math.IsNaN(to) || to < from {
		panic(fmt.Sprintf("physics: EffHours over invalid interval [%g, %g]", from, to))
	}
	span := to - from
	if e.hotPerPeriod <= 0 {
		return span * e.afBase
	}
	hot := e.hotHoursBefore(to) - e.hotHoursBefore(from)
	if hot < 0 {
		hot = 0
	} else if hot > span {
		hot = span
	}
	return float64(hot*e.afHot) + float64((span-hot)*e.afBase)
}

// RetentionClock tracks simulated device time. It deliberately stores
// no accumulated retention: a block's effective retention is
// ScheduleEval.EffHours(programTime, NowHours()), recomputed from the
// endpoint pair, so a query at device-hour T returns bit-identical
// results no matter how many intermediate AdvanceTo calls happened, or
// how an interval was split across them. Accumulating per-interval
// increments instead would make replay results drift with request
// arrival granularity and worker scheduling, breaking the
// byte-identical determinism contract.
type RetentionClock struct {
	nowHours float64
}

// AdvanceTo moves the clock to the absolute device-hour now. The clock
// is monotonic: moving backwards is clamped (MSR traces carry
// occasional out-of-order timestamps); NaN panics.
func (c *RetentionClock) AdvanceTo(nowHours float64) {
	if math.IsNaN(nowHours) {
		panic("physics: RetentionClock.AdvanceTo(NaN)")
	}
	if nowHours > c.nowHours {
		c.nowHours = nowHours
	}
}

// NowHours returns the clock's current absolute device-hour.
func (c *RetentionClock) NowHours() float64 { return c.nowHours }
