package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"sentinel3d/internal/obs"
)

// Ladder levels, engaged strictly in order under sustained overload and
// released in reverse as pressure drains. Each level keeps the measures
// of the levels below it.
const (
	// LevelNormal: full service.
	LevelNormal = 0
	// LevelShed: requests from tenants with Tier >= shedTier get 503.
	LevelShed = 1
	// LevelForceTable: every read runs the static-table policy — no
	// sentinel aux senses, cheaper and more predictable service time.
	LevelForceTable = 2
	// LevelFailFast: reads carry a hard retry budget (failFastRetries);
	// pages needing more fail immediately as uncorrectable.
	LevelFailFast = 3
)

// Ladder tuning.
const (
	// ladderTick is the sampling period of the pressure signal.
	ladderTick = 25 * time.Millisecond
	// ladderEngage and ladderRelease are queue-occupancy hysteresis
	// thresholds: pressure >= ladderEngage counts toward climbing a
	// level, pressure <= ladderRelease toward stepping down.
	ladderEngage  = 0.75
	ladderRelease = 0.25
	// ladderUpTicks and ladderDownTicks are how many consecutive
	// qualifying ticks a transition needs: quick to protect, slow to
	// relax. The ladder moves ONE level per transition, never skips.
	ladderUpTicks   = 2
	ladderDownTicks = 8
	// shedTier: tenants with Tier >= shedTier are shed at LevelShed.
	shedTier = 2
	// failFastRetries is the per-page retry budget at LevelFailFast.
	failFastRetries = 1
)

// Transition records one ladder level change.
type Transition struct {
	At       time.Time
	From, To int
	Pressure float64
}

// Ladder is the three-step overload/degradation controller: it samples
// a pressure signal (the fleet's worst queue occupancy) on a ticker and
// walks the level up or down one step at a time with hysteresis. Level
// reads are lock-free; the transition history is kept for tests and
// operators.
type Ladder struct {
	pressure func() float64

	level atomic.Int32

	mu       sync.Mutex
	trans    []Transition
	up, down int

	// started is set by start; stopped closes on stop; done closes
	// when the sampling loop returns.
	started atomic.Bool
	stopped chan struct{}
	done    chan struct{}

	levelGauge *obs.Gauge
	transCtr   *obs.Counter
}

// newLadder builds a stopped ladder; start begins sampling.
// pressure must be safe for concurrent use (Fleet.MaxQueueFrac is).
func newLadder(pressure func() float64, set *obs.Set) *Ladder {
	return &Ladder{
		pressure:   pressure,
		stopped:    make(chan struct{}),
		done:       make(chan struct{}),
		levelGauge: set.Gauge("serve.degrade_level", "current overload ladder level (0=normal)"),
		transCtr:   set.Counter("serve.ladder_transitions", "ladder level changes"),
	}
}

// Level returns the current ladder level.
func (l *Ladder) Level() int { return int(l.level.Load()) }

// Transitions returns a copy of the level-change history in order.
func (l *Ladder) Transitions() []Transition {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Transition, len(l.trans))
	copy(out, l.trans)
	return out
}

// start launches the sampling loop.
func (l *Ladder) start() {
	l.started.Store(true)
	go func() {
		defer close(l.done)
		t := time.NewTicker(ladderTick)
		defer t.Stop()
		for {
			select {
			case <-l.stopped:
				return
			case <-t.C:
				l.tick()
			}
		}
	}()
}

// stop halts sampling; the level freezes at its current value. It
// waits for the loop only if start launched one. The server calls it
// once, after winning the draining flag.
func (l *Ladder) stop() {
	close(l.stopped)
	if l.started.Load() {
		<-l.done
	}
}

// tick samples pressure once and applies the hysteresis state machine:
// ladderUpTicks consecutive samples at or above ladderEngage climb one
// level, ladderDownTicks at or below ladderRelease descend one. The
// middle band resets both streaks, so a transition always reflects
// sustained pressure.
func (l *Ladder) tick() {
	p := l.pressure()
	l.mu.Lock()
	defer l.mu.Unlock()
	cur := int(l.level.Load())
	switch {
	case p >= ladderEngage:
		l.down = 0
		l.up++
		if l.up >= ladderUpTicks && cur < LevelFailFast {
			l.shift(cur, cur+1, p)
		}
	case p <= ladderRelease:
		l.up = 0
		l.down++
		if l.down >= ladderDownTicks && cur > LevelNormal {
			l.shift(cur, cur-1, p)
		}
	default:
		l.up, l.down = 0, 0
	}
}

// shift moves the level (caller holds mu) and resets both streaks so
// the next step needs its own full run of qualifying ticks.
func (l *Ladder) shift(from, to int, p float64) {
	l.level.Store(int32(to))
	l.up, l.down = 0, 0
	l.trans = append(l.trans, Transition{At: time.Now(), From: from, To: to, Pressure: p})
	l.transCtr.Inc()
	l.levelGauge.Set(float64(to))
}
