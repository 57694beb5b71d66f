package ssdsim

import (
	"fmt"
	"math"

	"sentinel3d/internal/mathx"
	"sentinel3d/internal/obs"
	"sentinel3d/internal/physics"
)

// LifetimeConfig makes stress evolve *during* replay instead of the
// device staying frozen at one stress point: every physical block
// carries its own physics.Stress, advanced by a retention clock driven
// from trace timestamps and a temperature schedule, cycled by the FTL's
// host-write/GC erases (including failed ones — see ftl.WearSink), and
// periodically interrupted by a background calibration scheduler that
// competes with host reads for die time.
//
// Everything here is a pure function of (config, trace time, block):
// no wall clock, no arrival-order dependence beyond each shard's own
// sub-stream — which is what keeps lifetime-enabled replay reports
// byte-identical at any worker count.
type LifetimeConfig struct {
	// BasePE is the P/E wear every block starts the replay with.
	BasePE int

	// BaseRetentionHours is the effective room-temperature retention the
	// pre-existing (preconditioned) data starts the replay with. Blocks
	// erased during the replay restart their retention from the erase
	// instant instead.
	BaseRetentionHours float64

	// Schedule is the ambient temperature over the replay; retention
	// accrues at the schedule's Arrhenius-accelerated rate.
	Schedule physics.TempSchedule

	// HoursPerSecond is the time-lapse factor: how many device-hours
	// pass per trace second. 0 means 1. A one-minute trace replayed at
	// 4380 h/s spans six months of device life.
	HoursPerSecond float64

	// CalibPeriodHours, when positive, schedules a background
	// calibration (sentinel re-inference) on every die each period of
	// device time.
	CalibPeriodHours float64

	// CalibDriftHours, when positive, additionally triggers a
	// calibration when a die has accrued that much *effective* retention
	// since its last one — hot devices recalibrate more often.
	CalibDriftHours float64

	// CalibUS is the die-busy time one calibration costs. Host reads
	// arriving while it runs queue behind it, so calibration shows up as
	// queue latency in the replay report.
	CalibUS float64
}

// activationEnergyEV converts hot time into effective room-temp time; it
// matches the paper chips (physics.TLC/QLC).
const activationEnergyEV float64 = 0.55

// Validate reports configuration errors.
func (c LifetimeConfig) Validate() error {
	if c.BasePE < 0 {
		return fmt.Errorf("ssdsim: negative base P/E %d", c.BasePE)
	}
	if math.IsNaN(c.BaseRetentionHours) || c.BaseRetentionHours < 0 {
		return fmt.Errorf("ssdsim: invalid base retention %g h", c.BaseRetentionHours)
	}
	if err := c.Schedule.Validate(); err != nil {
		return err
	}
	if math.IsNaN(c.HoursPerSecond) || c.HoursPerSecond < 0 {
		return fmt.Errorf("ssdsim: invalid time-lapse factor %g h/s", c.HoursPerSecond)
	}
	if c.CalibPeriodHours < 0 || c.CalibDriftHours < 0 || c.CalibUS < 0 {
		return fmt.Errorf("ssdsim: negative calibration parameter")
	}
	if (c.CalibPeriodHours > 0 || c.CalibDriftHours > 0) && c.CalibUS <= 0 {
		return fmt.Errorf("ssdsim: calibration scheduled but CalibUS is zero")
	}
	return nil
}

// LifetimeSampler interpolates between EmpiricalSamplers measured at a
// grid of (P/E, effective retention hours) stress points: a read drawn
// at stress st uses the pool of the nearest grid point at or below st
// (floor on both axes, clamped to the grid edges) — the measured point
// the block has most recently crossed. One RNG draw per read, exactly
// like the frozen-stress path.
type LifetimeSampler struct {
	// PEs and Hours are the grid coordinates, each ascending.
	PEs   []int
	Hours []float64
	// Pools holds the grid's samplers row-major: Pools[i*len(Hours)+j]
	// was measured at (PEs[i], Hours[j]).
	Pools []*EmpiricalSampler
}

// Validate checks the grid's shape and that every pool agrees on the
// page-type count.
func (ls *LifetimeSampler) Validate() error {
	if len(ls.PEs) == 0 || len(ls.Hours) == 0 {
		return fmt.Errorf("ssdsim: empty lifetime sampler grid")
	}
	if len(ls.Pools) != len(ls.PEs)*len(ls.Hours) {
		return fmt.Errorf("ssdsim: lifetime grid %dx%d has %d pools",
			len(ls.PEs), len(ls.Hours), len(ls.Pools))
	}
	for i := 1; i < len(ls.PEs); i++ {
		if ls.PEs[i] <= ls.PEs[i-1] {
			return fmt.Errorf("ssdsim: lifetime P/E grid not ascending at %d", i)
		}
	}
	for j := 1; j < len(ls.Hours); j++ {
		if ls.Hours[j] <= ls.Hours[j-1] {
			return fmt.Errorf("ssdsim: lifetime hours grid not ascending at %d", j)
		}
	}
	pt := -1
	for k, p := range ls.Pools {
		if p == nil {
			return fmt.Errorf("ssdsim: lifetime grid pool %d is nil", k)
		}
		if pt == -1 {
			pt = p.PageTypes()
		} else if p.PageTypes() != pt {
			return fmt.Errorf("ssdsim: lifetime grid pool %d covers %d page types, pool 0 covers %d",
				k, p.PageTypes(), pt)
		}
	}
	return nil
}

// PageTypes returns the page-type count of the grid's pools.
func (ls *LifetimeSampler) PageTypes() int {
	if len(ls.Pools) == 0 {
		return 0
	}
	return ls.Pools[0].PageTypes()
}

// cell returns the floor grid cell (i, j) for a P/E count and an
// effective retention: PEs[i] <= pe and Hours[j] <= hours, clamped to
// the grid. The grids are a handful of entries, so a linear scan beats
// a binary search.
func (ls *LifetimeSampler) cell(pe int, hours float64) (i, j int) {
	for i+1 < len(ls.PEs) && ls.PEs[i+1] <= pe {
		i++
	}
	for j+1 < len(ls.Hours) && ls.Hours[j+1] <= hours {
		j++
	}
	return i, j
}

// gridPool resolves the floor grid point for a stress state.
func (ls *LifetimeSampler) gridPool(st physics.Stress) *EmpiricalSampler {
	i, j := ls.cell(st.PECycles, st.EffRetentionHours)
	return ls.Pools[i*len(ls.Hours)+j]
}

// Sample implements RetrySampler by drawing from the grid origin — the
// distribution a lifetime-unaware consumer would see.
func (ls *LifetimeSampler) Sample(pageType int, rng *mathx.Rand) RetryOutcome {
	return ls.Pools[0].Sample(pageType, rng)
}

// SampleStressed draws from the pool of the grid point stress st floors
// to — what a lifetime-enabled replay draws for a block at that stress.
func (ls *LifetimeSampler) SampleStressed(pageType int, st physics.Stress, rng *mathx.Rand) RetryOutcome {
	return ls.gridPool(st).Sample(pageType, rng)
}

// grid implements RetrySampler.
func (ls *LifetimeSampler) grid() *LifetimeSampler { return ls }

// SyntheticLifetimeSampler builds a deterministic grid sampler whose
// retry cost grows with the grid point — the lifetime analogue of the
// synthetic frozen-stress pools that smoke cells, benchmarks and
// determinism tests use to avoid paying chip-simulator measurement
// cost. Pool (i, j) draws retries around i+j extra attempts, so an
// aging device visibly climbs the grid during a replay.
func SyntheticLifetimeSampler(bits int, pes []int, hours []float64, seed uint64) *LifetimeSampler {
	ls := &LifetimeSampler{PEs: pes, Hours: hours}
	const poolSize = 64
	for i := range pes {
		for j := range hours {
			es := &EmpiricalSampler{PerPage: make([][]RetryOutcome, bits)}
			for pt := 0; pt < bits; pt++ {
				rng := mathx.NewRand(mathx.Mix4(seed, uint64(i), uint64(j), uint64(pt)))
				pool := make([]RetryOutcome, poolSize)
				for k := range pool {
					// Page types retry more at higher grid points; MSB
					// pages (more read voltages) retry more than LSB.
					mean := i + j + pt/2
					r := rng.Intn(mean + 2)
					var aux int
					if rng.Float64() < 0.25 {
						aux = 1
					}
					pool[k] = RetryOutcome{Retries: r, AuxSenses: aux}
				}
				es.PerPage[pt] = pool
			}
			ls.Pools = append(ls.Pools, es)
		}
	}
	return ls
}

// LifetimeStats summarizes what the lifetime machinery did during a
// run. It lives beside ReportSummary rather than in it: the frozen
// replay cells' golden digests hash the summary's %v rendering, so the
// summary's field set is pinned.
type LifetimeStats struct {
	// Enabled records that the run carried lifetime state at all.
	Enabled bool
	// DeviceHours is the retention clock's final reading — the span of
	// device life the trace covered (max across shards).
	DeviceHours float64
	// RunErases counts erase attempts observed during the replay pass
	// (preconditioning excluded), including failed ones.
	RunErases int64
	// FailedEraseWear counts the erase attempts that failed: wear that
	// accrued without freeing a block.
	FailedEraseWear int64
	// WornBlocks is the number of blocks that took at least one erase
	// during the replay; MaxBlockWear the largest per-block count.
	WornBlocks   int64
	MaxBlockWear int64
	// Calibrations counts background calibration runs; CalibBusyUS the
	// die time they consumed (host reads queued behind it).
	Calibrations int64
	CalibBusyUS  float64
}

// mergeLife folds a shard's lifetime stats into s in shard order.
func (s *LifetimeStats) mergeLife(o LifetimeStats) {
	s.Enabled = s.Enabled || o.Enabled
	if o.DeviceHours > s.DeviceHours {
		s.DeviceHours = o.DeviceHours
	}
	s.RunErases += o.RunErases
	s.FailedEraseWear += o.FailedEraseWear
	s.WornBlocks += o.WornBlocks
	if o.MaxBlockWear > s.MaxBlockWear {
		s.MaxBlockWear = o.MaxBlockWear
	}
	s.Calibrations += o.Calibrations
	s.CalibBusyUS += o.CalibBusyUS
}

// lifetime is one Sim's per-block aging state. It is owned by the Sim's
// single replaying goroutine; the clock advances from the arrival
// timestamps of the shard's own sub-stream, so every field is a pure
// function of (config, sub-trace) — never of worker scheduling.
type lifetime struct {
	cfg  LifetimeConfig
	eval physics.ScheduleEval
	// nowH is the device clock in hours: monotone, advanced only by
	// tickUS. No retention is accumulated against it; a block's
	// effective retention is recomputed from the (reset, now) endpoint
	// pair (effRetention), so a read at hour T sees bit-identical stress
	// however many ticks led there or how an interval was split across
	// them. Summing per-interval increments instead would make replay
	// results drift with request arrival granularity.
	nowH       float64
	hoursPerUS float64
	usPerHour  float64

	// armed gates wear accounting: preconditioning warms the FTL through
	// the same write path, and its GC churn must not perturb the
	// configured base age.
	armed bool

	// maxAF bounds the retention accrual rate (ScheduleEval.MaxRate),
	// turning grid-pool lookups into a cached-until-expiry check.
	maxAF float64
	// calibOn short-circuits the per-op calibration check when neither
	// trigger is configured.
	calibOn bool

	blocksPerPlane int
	// Per physical block (plane-major): the device-hour of the block's
	// last successful replay erase (negative = still holding pre-replay
	// data aged BaseRetentionHours) and replay-observed erase attempts.
	resetH []float64
	cycles []int32

	// Per-block grid-pool cache: the resolved grid-pool index and the
	// device-hour before which the block's stress provably cannot cross
	// into the next grid cell (retention accrues at most at maxAF; P/E
	// only moves on erase, which invalidates). Between those events the
	// floor-grid lookup is a single comparison — and stays bit-identical
	// to resolving gridPool on every read.
	poolIdx    []int32
	poolExpiry []float64

	// Per die: next periodic calibration due time and last calibration
	// time, both in device-hours.
	calibNext []float64
	calibLast []float64

	calibrations int64
	calibBusyUS  float64
	runErases    int64
	failedWear   int64
}

// newLifetime builds the per-block state for one (sub-)device.
func newLifetime(cfg Config) *lifetime {
	lc := *cfg.Life
	if lc.HoursPerSecond == 0 {
		lc.HoursPerSecond = 1
	}
	eval := lc.Schedule.Eval(physics.Params{ActivationEnergyEV: activationEnergyEV})
	l := &lifetime{
		cfg:            lc,
		eval:           eval,
		hoursPerUS:     lc.HoursPerSecond / 1e6,
		usPerHour:      1e6 / lc.HoursPerSecond,
		maxAF:          eval.MaxRate(),
		calibOn:        lc.CalibPeriodHours > 0 || lc.CalibDriftHours > 0,
		blocksPerPlane: cfg.Geo.BlocksPerPlane,
		resetH:         make([]float64, cfg.Geo.Planes()*cfg.Geo.BlocksPerPlane),
		cycles:         make([]int32, cfg.Geo.Planes()*cfg.Geo.BlocksPerPlane),
		poolIdx:        make([]int32, cfg.Geo.Planes()*cfg.Geo.BlocksPerPlane),
		poolExpiry:     make([]float64, cfg.Geo.Planes()*cfg.Geo.BlocksPerPlane),
		calibNext:      make([]float64, cfg.Geo.Dies()),
		calibLast:      make([]float64, cfg.Geo.Dies()),
	}
	for i := range l.poolExpiry {
		l.poolExpiry[i] = -1 // unresolved: first read refreshes
	}
	for i := range l.resetH {
		l.resetH[i] = -1 // pre-replay data: ages from BaseRetentionHours at epoch 0
	}
	for d := range l.calibNext {
		l.calibNext[d] = lc.CalibPeriodHours // first period ends one period in
	}
	return l
}

// tickUS advances the device clock to trace-microsecond t. An earlier t
// leaves the clock where it is (MSR traces carry occasional
// out-of-order timestamps); a NaN t panics.
func (l *lifetime) tickUS(t float64) {
	h := t * l.hoursPerUS
	if h > l.nowH {
		l.nowH = h
	} else if h != h {
		panic("ssdsim: lifetime clock ticked to NaN")
	}
}

// effRetention recomputes block i's effective retention from the
// (reset, now) endpoints, never from an accumulated sum (see nowH).
func (l *lifetime) effRetention(i int, now float64) float64 {
	if r := l.resetH[i]; r < 0 {
		return l.cfg.BaseRetentionHours + l.eval.EffHours(0, now)
	} else if r < now {
		return l.eval.EffHours(r, now)
	}
	return 0
}

// poolIndex resolves the index in ls.Pools of the grid pool for a read
// of (plane, block) at the clock's current reading. It is the same pool
// gridPool would resolve from the block's current stress, found through
// the per-block expiry cache: retention is monotone while the reset
// epoch stands (rate bounded by maxAF) and P/E only moves on erase, so
// between refreshes the floor cell provably cannot change.
func (l *lifetime) poolIndex(ls *LifetimeSampler, plane, block int) int {
	i := plane*l.blocksPerPlane + block
	if now := l.nowH; now >= l.poolExpiry[i] {
		l.refreshPool(ls, i, now)
	}
	return int(l.poolIdx[i])
}

// refreshPool re-resolves block i's grid cell at device-hour now and
// bounds how long the result stays valid.
func (l *lifetime) refreshPool(ls *LifetimeSampler, i int, now float64) {
	eff := l.effRetention(i, now)
	pi, j := ls.cell(l.cfg.BasePE+int(l.cycles[i]), eff)
	l.poolIdx[i] = int32(pi*len(ls.Hours) + j)
	if j+1 < len(ls.Hours) {
		// Retention accrues at most maxAF effective hours per device
		// hour, so the next cell boundary is unreachable before this.
		l.poolExpiry[i] = now + (ls.Hours[j+1]-eff)/l.maxAF
	} else {
		l.poolExpiry[i] = math.Inf(1)
	}
}

// BlockErased implements ftl.WearSink: every replay-time erase attempt
// wears the block; a successful one also resets its retention epoch to
// the current device time. Failed erases wear without erasing — the
// data (and its retention clock) stay put, which is exactly the wear the
// old code lost track of.
func (l *lifetime) BlockErased(plane, block int, failed bool) {
	if !l.armed {
		return
	}
	i := plane*l.blocksPerPlane + block
	l.cycles[i]++
	l.runErases++
	l.poolExpiry[i] = -1 // P/E moved (and maybe the reset epoch): re-resolve
	if failed {
		l.failedWear++
		return
	}
	l.resetH[i] = l.nowH
}

// beforeOp charges any calibration work due on die before an operation
// arriving at trace-microsecond arrive: periodic calibrations that came
// due since the die's last one, then the drift trigger. The work lands
// on dieFree, so the host operation (and everything after it) queues
// behind it — calibration surfaces as queue latency, exactly like GC.
func (s *Sim) beforeOp(die int32, arrive float64) {
	l := s.life
	l.tickUS(arrive)
	if l.calibOn {
		s.chargeCalib(die, arrive)
	}
}

// chargeCalib lands due calibration work on die's busy-until time.
func (s *Sim) chargeCalib(die int32, arrive float64) {
	l := s.life
	now := l.nowH
	if l.cfg.CalibPeriodHours > 0 {
		for l.calibNext[die] <= now {
			due := l.calibNext[die]
			start := max(due*l.usPerHour, s.dieFree[die])
			s.dieFree[die] = start + l.cfg.CalibUS
			l.calibLast[die] = due
			l.calibNext[die] += l.cfg.CalibPeriodHours
			l.calibrations++
			l.calibBusyUS += l.cfg.CalibUS
		}
	}
	if l.cfg.CalibDriftHours > 0 &&
		l.eval.EffHours(l.calibLast[die], now) >= l.cfg.CalibDriftHours {
		s.dieFree[die] = max(arrive, s.dieFree[die]) + l.cfg.CalibUS
		l.calibLast[die] = now
		l.calibrations++
		l.calibBusyUS += l.cfg.CalibUS
	}
}

// finish folds the lifetime state into the report and publishes the
// obs views: the calibration counter and duty-cycle gauge, and the
// per-block wear histogram. Called once per run from flushCounters.
func (l *lifetime) finish(rep *Report, set *obs.Set, makespan float64) {
	st := LifetimeStats{
		Enabled:         true,
		DeviceHours:     l.nowH,
		RunErases:       l.runErases,
		FailedEraseWear: l.failedWear,
		Calibrations:    l.calibrations,
		CalibBusyUS:     l.calibBusyUS,
	}
	var wearHist mathx.LogHist
	for _, c := range l.cycles {
		if c == 0 {
			continue
		}
		st.WornBlocks++
		if int64(c) > st.MaxBlockWear {
			st.MaxBlockWear = int64(c)
		}
		wearHist.Add(float64(c))
	}
	rep.Life = st
	if set == nil {
		return
	}
	set.Counter("ssdsim.calibrations",
		"background calibration runs charged to die time").Add(l.calibrations)
	var zero mathx.LogHist
	set.Hist("ssdsim.block_wear",
		"per-block erase attempts observed during replay").Flush(&wearHist, &zero)
	if makespan > 0 {
		set.Gauge("ssdsim.calib_duty",
			"fraction of the simulated makespan spent calibrating").
			Set(l.calibBusyUS / makespan)
	}
	set.Gauge("ssdsim.device_hours",
		"device life the replay's retention clock covered").Set(st.DeviceHours)
}
