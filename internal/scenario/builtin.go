package scenario

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"sentinel3d/internal/charlab"
	"sentinel3d/internal/experiments"
	"sentinel3d/internal/flash"
	"sentinel3d/internal/mathx"
	"sentinel3d/internal/obs"
	"sentinel3d/internal/parallel"
	"sentinel3d/internal/physics"
	"sentinel3d/internal/ssdsim"
	"sentinel3d/internal/trace"
)

// renderer is the shape every experiments result satisfies.
type renderer interface{ Render() string }

// outcomeOf wraps an experiments result into an Outcome.
func outcomeOf(r renderer, err error) (*Outcome, error) {
	if err != nil {
		return nil, err
	}
	return &Outcome{Payload: r, Render: r.Render()}, nil
}

// figure is a plain figure experiment.
func figure[T renderer](name, desc string, fn func(experiments.Scale) (T, error)) *Entry {
	return &Entry{Name: name, Desc: desc, InAll: true,
		Run: func(ctx *Ctx) (*Outcome, error) { return outcomeOf(fn(ctx.Scale)) }}
}

// kindFigure is a kind-parameterized figure experiment.
func kindFigure[T renderer](name, desc string, fn func(experiments.Scale, flash.Kind) (T, error)) *Entry {
	return &Entry{Name: name, Desc: desc, InAll: true, PerKind: true,
		Run: func(ctx *Ctx) (*Outcome, error) { return outcomeOf(fn(ctx.Scale, ctx.Kind())) }}
}

// traceFigure is a trace-driven figure experiment: it replays the
// cell's request count (6000 by default) per workload.
func traceFigure[T renderer](name, desc string, fn func(experiments.Scale, int) (T, error)) *Entry {
	return &Entry{Name: name, Desc: desc, InAll: true,
		Run: func(ctx *Ctx) (*Outcome, error) { return outcomeOf(fn(ctx.Scale, ctx.Requests(6000))) }}
}

// entries is the experiment table. Its order is the order `-exp all`
// (and a full matrix run) executes in.
var entries = []*Entry{
	figure("fig2", "bit errors vs read-voltage offset", experiments.Fig2ErrorVsOffset),
	kindFigure("fig3", "per-layer RBER, default vs optimal voltages", experiments.Fig3LayerRBER),
	figure("fig45", "temperature impact after one hour", experiments.Fig45Temperature),
	figure("fig6", "optimal offsets across layers", experiments.Fig6LayerOptima),
	{Name: "fig7", Desc: "bit-error position map", InAll: true, Run: runFig7},
	figure("fig8", "correlation of per-voltage optima", experiments.Fig8Correlation),
	kindFigure("fig10", "f(d) fit and inference validation", experiments.Fig10InferenceFit),
	kindFigure("table1", "prediction error vs sentinel ratio", experiments.Table1SentinelRatio),
	figure("fig12", "state-change counts around the optimum", experiments.Fig12StateChange),
	figure("fig13", "read retries, current flash vs sentinel", experiments.Fig13RetryCount),
	traceFigure("fig14", "trace-driven read-latency reduction", experiments.Fig14TraceLatency),
	kindFigure("errcomp", "per-voltage errors and success rates (figs 15-18)", experiments.ErrorComparison),
	figure("fig19", "LDPC decoding success", experiments.Fig19LDPC),
	figure("robust", "sentinel corruption sweep (graceful degradation)", experiments.CorruptionSweep),
	figure("ablation-placement", "sentinel placement ablation", func(s experiments.Scale) (*experiments.PlacementAblationResult, error) {
		return experiments.AblatePlacement(s, flash.QLC)
	}),
	figure("ablation-tempbands", "temperature-band ablation", experiments.TempBandExperiment),
	figure("ablation-delta", "calibration-delta ablation", experiments.AblateCalibrationDelta),
	figure("ablation-combined", "combined ablation", experiments.AblateCombined),
	traceFigure("adaptive", "adaptive first-shot reads: table/sentinel vs ar2/history", experiments.Adaptive),
	traceFigure("lifetime", "device-lifetime sweep: dynamic aging replay, sentinel vs table per age and temperature schedule", experiments.Lifetime),
	{Name: "replay", Desc: "sharded streaming trace replay under one retry policy", Run: runReplay},
	{Name: "charlab", Desc: "chip characterization bench (RBER table, optima, sweeps)", PerKind: true, Run: runCharlab},
	{Name: "serve", Desc: "in-process read server driven by a closed-loop flashbench run", Run: runServe},
}

// runFig7 runs Fig 7. Fig7Result.Map is a nested pointer; digesting the
// result itself would hash its heap address, so the payload flattens it.
func runFig7(ctx *Ctx) (*Outcome, error) {
	r, err := experiments.Fig7ErrorMap(ctx.Scale)
	if err != nil {
		return nil, err
	}
	payload := struct {
		Map               charlab.ErrorMap
		UniformityChi2    float64
		WordlineVariation float64
	}{*r.Map, r.UniformityChi2, r.WordlineVariation}
	return &Outcome{Payload: payload, Render: r.Render()}, nil
}

// chipPrep is the shared preconditioning of chip-backed replay cells:
// the aged-chip testbed and the wordlines its pools sample. Cells
// differing only in policy, workload, shard count or request count
// share one chipPrep.
type chipPrep struct {
	tb  *experiments.Testbed
	wls []int
}

// prepKey is the dedup signature of the chip-level preconditioning.
// The seeds below are fixed (like every experiment's internal seeds),
// so the signature is a pure function of the declared axes — which is
// exactly what lets cells share it.
func prepKey(scale string, kind flash.Kind, pe int, hours float64, f *FaultSpec) string {
	return fmt.Sprintf("chipprep/%s/%v/pe%d/h%g/%s", scale, kind, pe, hours, f.key())
}

// replayStress resolves a replay/charlab cell's stress point: PE==0 and
// Hours==0 mean the tracesim defaults (5000 cycles, one year).
func replayStress(spec Spec) (int, float64) {
	pe, hours := spec.PE, spec.Hours
	if pe == 0 {
		pe = 5000
	}
	if hours == 0 {
		hours = physics.YearHours
	}
	return pe, hours
}

// buildChipPrepAt is the chip-level setup of a replay cell at an
// explicit stress point: train on chip 1, evaluate on chip 2 aged to
// (pe, hours), corrupt the sentinel region when the spec says so. The
// lifetime path measures several retention points per cell (including
// P/E 0, which replayStress would remap to the frozen default).
func buildChipPrepAt(ctx *Ctx, pe int, hours float64) (*chipPrep, error) {
	// Preconditioning is shared across cells, so it must not write to any
	// single cell's registry.
	scale := ctx.Scale
	scale.Obs = nil
	kind := ctx.Kind()
	key := prepKey(scale.Name, kind, pe, hours, ctx.Spec.Fault)
	v, err := ctx.Shared.Do(key, func() (any, error) {
		tb, err := scale.Testbed(kind, 1, 2, pe, hours)
		if err != nil {
			return nil, err
		}
		if inj, err := ctx.Spec.Fault.chipProfile(tb.Cfg.UserCells(), tb.Cfg.CellsPerWordline,
			tb.Chip.Model().P.StateWidth); err != nil {
			return nil, err
		} else if inj != nil {
			tb.Chip.SetFaults(inj)
		}
		var wls []int
		for wl := 0; wl < tb.Cfg.WordlinesPerBlock(); wl += 2 {
			wls = append(wls, wl)
		}
		return &chipPrep{tb: tb, wls: wls}, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*chipPrep), nil
}

// samplerFor resolves the cell's retry-outcome sampler, sharing both
// the chip preconditioning and the per-policy sampling across cells.
func samplerFor(ctx *Ctx) (*ssdsim.EmpiricalSampler, error) {
	pe, hours := replayStress(ctx.Spec)
	return samplerAt(ctx, pe, hours)
}

// samplerAt is samplerFor at an explicit stress point. Each policy
// samples with its own fixed seed — 11 plus its position in the
// catalogue — so every cell sharing the prep sees identical
// distributions.
func samplerAt(ctx *Ctx, pe int, hours float64) (*ssdsim.EmpiricalSampler, error) {
	policy := ctx.Spec.Policy
	if policy == "" {
		policy = "sentinel"
	}
	if policy == "synthetic" {
		return experiments.SyntheticSampler(), nil
	}
	prep, err := buildChipPrepAt(ctx, pe, hours)
	if err != nil {
		return nil, err
	}
	key := prepKey(ctx.Scale.Name, ctx.Kind(), pe, hours, ctx.Spec.Fault) + "/sampler/" + policy
	v, err := ctx.Shared.Do(key, func() (any, error) {
		seed := 11 + uint64(slices.Index(experiments.PolicyNames, policy))
		return prep.tb.Sampler(policy, prep.wls, seed)
	})
	if err != nil {
		return nil, err
	}
	return v.(*ssdsim.EmpiricalSampler), nil
}

// ReplayResult is a replay cell's deterministic payload: the engine's
// merged report plus the axes that produced it. Wall-clock throughput
// lives in the cell metrics, never here.
type ReplayResult struct {
	Workload string
	Policy   string
	Shards   int
	Report   ssdsim.ReportSummary
}

// Render prints the replay summary table.
func (r *ReplayResult) Render() string {
	rep := &r.Report
	return experiments.Table(
		[]string{"workload", "policy", "shards", "reads", "mean µs", "p95", "p99", "uncorr", "fallback", "retired"},
		[][]string{{
			r.Workload, r.Policy, fmt.Sprint(r.Shards), fmt.Sprint(rep.Reads),
			fmt.Sprintf("%.1f", rep.MeanReadUS),
			fmt.Sprintf("%.1f", rep.P95ReadUS), fmt.Sprintf("%.1f", rep.P99ReadUS),
			fmt.Sprint(rep.UncorrectableReads), fmt.Sprint(rep.FallbackReads),
			fmt.Sprint(rep.RetiredBlocks),
		}})
}

// LifetimeReplayResult is the payload of a dynamic-aging replay cell:
// the replay summary plus the lifetime axes and what the aging
// machinery did. It is a separate type from ReplayResult so frozen-
// stress cells keep their pinned digest surface.
type LifetimeReplayResult struct {
	Workload string
	Policy   string
	Age      string
	Schedule string
	Shards   int
	Report   ssdsim.ReportSummary
	Life     ssdsim.LifetimeStats
}

// Render prints the replay summary row plus the lifetime line.
func (r *LifetimeReplayResult) Render() string {
	rep := &r.Report
	return experiments.Table(
		[]string{"workload", "policy", "age", "schedule", "shards", "reads", "mean µs", "p99", "uncorr"},
		[][]string{{
			r.Workload, r.Policy, r.Age, r.Schedule, fmt.Sprint(r.Shards),
			fmt.Sprint(rep.Reads), fmt.Sprintf("%.1f", rep.MeanReadUS),
			fmt.Sprintf("%.1f", rep.P99ReadUS), fmt.Sprint(rep.UncorrectableReads),
		}}) + fmt.Sprintf(
		"lifetime: %.0f device-hours, %d calibrations (%.0f µs busy), %d erases (%d failed-wear), %d worn blocks (max %d)\n",
		r.Life.DeviceHours, r.Life.Calibrations, r.Life.CalibBusyUS,
		r.Life.RunErases, r.Life.FailedEraseWear, r.Life.WornBlocks, r.Life.MaxBlockWear)
}

// lifetimeAxes resolves a lifetime cell's presets; either axis unset
// defaults to the frozen-replay-equivalent point ("worn") at room
// temperature. Validate checked membership, so lookups cannot miss.
func lifetimeAxes(spec Spec) (experiments.AgePreset, string, physics.TempSchedule) {
	ageName := spec.Age
	if ageName == "" {
		ageName = "worn"
	}
	schedName := spec.Schedule
	if schedName == "" {
		schedName = "room"
	}
	age, _ := experiments.AgeByName(ageName)
	sched, _ := experiments.ScheduleByName(schedName)
	return age, schedName, sched
}

// lifetimeSamplerFor builds the cell's grid sampler: one pool per
// retention point of the age's grid, measured on aged chips through the
// shared prep cache ("synthetic" cells use the deterministic synthetic
// grid instead, like their frozen counterparts).
func lifetimeSamplerFor(ctx *Ctx, age experiments.AgePreset, bits int) (*ssdsim.LifetimeSampler, error) {
	grid := experiments.LifetimeGridHours(age.Hours)
	if ctx.Spec.Policy == "synthetic" {
		return ssdsim.SyntheticLifetimeSampler(bits, []int{age.PE}, grid, 0x11fe), nil
	}
	ls := &ssdsim.LifetimeSampler{PEs: []int{age.PE}, Hours: grid}
	for _, h := range grid {
		pool, err := samplerAt(ctx, age.PE, h)
		if err != nil {
			return nil, err
		}
		ls.Pools = append(ls.Pools, pool)
	}
	return ls, nil
}

// FleetReplayResult is the payload of a multi-device replay cell: the
// merged fleet report plus one summary per device. It is a separate
// type from ReplayResult so single-device cells keep their frozen
// digest surface.
type FleetReplayResult struct {
	Workload  string
	Policy    string
	Shards    int
	Devices   int
	Replicate bool
	Report    ssdsim.ReportSummary
	PerDevice []ssdsim.ReportSummary
}

// Render prints the merged fleet row followed by one row per device.
func (r *FleetReplayResult) Render() string {
	mode := "striped"
	if r.Replicate {
		mode = "replicated"
	}
	rows := [][]string{fleetRow("fleet", &r.Report)}
	for d := range r.PerDevice {
		rows = append(rows, fleetRow(fmt.Sprintf("dev%d", d), &r.PerDevice[d]))
	}
	return fmt.Sprintf("workload %s, policy %s, %d devices (%s) x %d shards\n%s",
		r.Workload, r.Policy, r.Devices, mode, r.Shards,
		experiments.Table(
			[]string{"device", "requests", "reads", "mean µs", "p95", "p99", "uncorr", "fallback", "retired"},
			rows))
}

func fleetRow(label string, rep *ssdsim.ReportSummary) []string {
	return []string{
		label, fmt.Sprint(rep.Requests), fmt.Sprint(rep.Reads),
		fmt.Sprintf("%.1f", rep.MeanReadUS),
		fmt.Sprintf("%.1f", rep.P95ReadUS), fmt.Sprintf("%.1f", rep.P99ReadUS),
		fmt.Sprint(rep.UncorrectableReads), fmt.Sprint(rep.FallbackReads),
		fmt.Sprint(rep.RetiredBlocks),
	}
}

// runReplay is the scenario-native replay runner: one workload under
// one retry policy through the sharded streaming engine — across a
// fleet of devices when the cell sets Devices. The report is
// deterministic (simulated latencies, fixed-order merges), so replay
// cells golden-gate like figures; wall-clock req/s goes to metrics.
func runReplay(ctx *Ctx) (*Outcome, error) {
	spec := ctx.Spec
	simCfg := experiments.TraceDevice()
	simCfg.Seed = ctx.Seed
	if spec.Policy != "" && spec.Policy != "synthetic" {
		simCfg.Bits = ctx.Kind().Bits()
	}
	lifetimeOn := spec.Age != "" || spec.Schedule != ""
	var sampler ssdsim.RetrySampler
	var esampler *ssdsim.EmpiricalSampler
	var ageName, schedName string
	if lifetimeOn {
		age, sn, sched := lifetimeAxes(spec)
		ageName, schedName = age.Name, sn
		ls, err := lifetimeSamplerFor(ctx, age, simCfg.Bits)
		if err != nil {
			return nil, err
		}
		sampler = ls
		simCfg.Life = &ssdsim.LifetimeConfig{
			BasePE:             age.PE,
			BaseRetentionHours: age.Hours,
			Schedule:           sched,
			// One trace-second is 3600 device-hours (~5 months/minute), so
			// even a smoke-sized trace visibly climbs the retention grid;
			// calibration runs monthly.
			HoursPerSecond:   3600,
			CalibPeriodHours: 730,
			CalibUS:          300,
		}
	} else {
		es, err := samplerFor(ctx)
		if err != nil {
			return nil, err
		}
		esampler, sampler = es, es
	}
	if pef, err := spec.Fault.ftlFaults(); err != nil {
		return nil, err
	} else if pef != nil {
		simCfg.PEFaults = pef
	}
	shards := spec.Shards
	if shards == 0 {
		shards = 1
	}
	devices := spec.Devices
	if devices == 0 {
		devices = 1
	}
	var reg = ctx.Obs
	if reg != nil && reg.Shards() < devices*shards {
		// A CLI-level registry narrower than the cell's shard count
		// cannot hold per-shard cells; run uninstrumented rather than
		// failing the cell.
		reg = nil
	}
	requests := ctx.Requests(6000)
	var open trace.Opener
	workload := spec.Workload
	switch {
	case spec.TraceFile != "":
		workload = spec.TraceFile
		open = trace.FileOpener(spec.TraceFile)
	default:
		if workload == "" {
			workload = "hm_0"
		}
		ws, err := trace.WorkloadByName(workload)
		if err != nil {
			return nil, err
		}
		ws.WorkingSetPages = int64(simCfg.Geo.PagesTotal()) * 6 / 10
		open = trace.GeneratorOpener(ws, requests, mathx.Mix(ctx.Seed, 0x7ace))
	}
	eng, err := ssdsim.NewEngine(ssdsim.ReplayConfig{
		Sim: simCfg, Shards: shards, Devices: devices, Replicate: spec.Replicate,
		CollectLatencies: spec.Collect, Precondition: true,
		Metrics: reg, Ctx: ctx.Context,
	}, sampler)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	rep, err := eng.Replay(open)
	if err != nil {
		return nil, err
	}
	wall := time.Since(start).Seconds()
	policy := spec.Policy
	if policy == "" {
		policy = "sentinel"
	}
	var res renderer
	switch {
	case devices > 1:
		// Fleet cells keep their payload type with or without lifetime;
		// the merged lifetime stats surface in the cell metrics.
		res = &FleetReplayResult{
			Workload: workload, Policy: policy, Shards: shards,
			Devices: devices, Replicate: spec.Replicate,
			Report: rep.Summary(), PerDevice: rep.PerDevice,
		}
	case lifetimeOn:
		res = &LifetimeReplayResult{
			Workload: workload, Policy: policy, Age: ageName, Schedule: schedName,
			Shards: shards, Report: rep.Summary(), Life: rep.Life,
		}
	default:
		res = &ReplayResult{Workload: workload, Policy: policy, Shards: shards, Report: rep.Summary()}
	}
	metrics := map[string]float64{
		"req/s":   float64(rep.Requests) / wall,
		"mean-us": rep.MeanReadUS,
	}
	if esampler != nil && policy != "synthetic" {
		metrics["msb-retries"] = esampler.MeanRetries(ctx.Kind().Bits() - 1)
	}
	if lifetimeOn {
		metrics["device-hours"] = rep.Life.DeviceHours
		metrics["calibrations"] = float64(rep.Life.Calibrations)
	}
	if reg != nil {
		metrics["obs-series"] = obsSeries(reg)
	}
	return &Outcome{Payload: res, Render: res.Render(), Metrics: metrics}, nil
}

// obsSeries counts the deterministic series an instrumented cell
// exported.
func obsSeries(reg *obs.Registry) float64 {
	snap := reg.Snapshot().Deterministic()
	return float64(len(snap.Counters) + len(snap.Hists))
}

// runCharlab is the flashlab CLI's engine: program, age and
// characterize a block, rendering the per-wordline RBER/optima table
// and an optional error-vs-offset sweep.
func runCharlab(ctx *Ctx) (*Outcome, error) {
	spec := ctx.Spec
	kind := ctx.Kind()
	scale := ctx.Scale
	seed := ctx.Seed
	cfg := scale.ChipConfig(kind, seed)
	chip, err := flash.New(cfg)
	if err != nil {
		return nil, err
	}
	n := spec.Wordlines
	if n <= 0 {
		n = 8
	}
	if n > cfg.WordlinesPerBlock() {
		n = cfg.WordlinesPerBlock()
	}
	wls := make([]int, n)
	for i := range wls {
		wls[i] = i * cfg.WordlinesPerBlock() / n
	}
	// Per-wordline RNG streams keyed by index: identical data at any
	// worker count (the flashlab contract since PR 1).
	parallel.ForEach(len(wls), func(i int) {
		rng := mathx.NewRand(mathx.Mix(seed^0xf1a5, uint64(wls[i])))
		chip.ProgramRandom(wls[i], rng)
	})
	pe := spec.PE
	hours := spec.Hours
	if hours == 0 {
		hours = 8760
	}
	temp := spec.TempC
	if temp == 0 {
		temp = physics.RoomTempC
	}
	chip.Cycle(pe)
	chip.Age(hours, temp)

	if inj, err := spec.Fault.chipProfile(cfg.UserCells(), cfg.CellsPerWordline,
		chip.Model().P.StateWidth); err != nil {
		return nil, err
	} else if inj != nil {
		chip.SetFaults(inj)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "chip: %v, %d layers x %d WL/layer, %d cells/WL, seed %d\n",
		kind, cfg.Layers, cfg.WordlinesPerLayer, cfg.CellsPerWordline, seed)
	fmt.Fprintf(&b, "stress: %d P/E cycles, %.0f h at %.0f C (%.0f effective room-temp hours)\n\n",
		pe, hours, temp, chip.Stress().EffRetentionHours)

	// Bench-level instrumentation, nil-safe when the cell carries no
	// registry: what was measured and the RBER spread.
	set := ctx.Obs.Set(0)
	wlMeasured := set.Counter("flashlab.wordlines", "wordlines characterized")
	rberHist := set.Hist("flashlab.page_rber", "raw bit error rate per page measurement")
	sweepPoints := set.Counter("flashlab.sweep_points", "error-vs-offset sweep points evaluated")

	lab := charlab.New(chip)
	header := []string{"wordline", "layer"}
	for p := 0; p < kind.Bits(); p++ {
		header = append(header, chip.Coding().PageName(p)+" RBER")
	}
	header = append(header, "MSB RBER@opt", "Vsent opt")
	sv := chip.Coding().SentinelVoltage()
	// Each wordline yields its table row and its raw default-voltage
	// page RBERs; the mean-rber metric averages the raw values.
	type measured struct {
		row  []string
		rber []float64
	}
	ms := parallel.Map(len(wls), func(i int) measured {
		wl := wls[i]
		wlMeasured.Inc()
		m := measured{row: []string{fmt.Sprint(wl), fmt.Sprint(chip.LayerOf(wl))}}
		for p := 0; p < kind.Bits(); p++ {
			rber := lab.PageRBER(wl, p, nil)
			rberHist.Observe(rber)
			m.rber = append(m.rber, rber)
			m.row = append(m.row, fmt.Sprintf("%.3g", rber))
		}
		opt := lab.OptimalOffsets(wl)
		m.row = append(m.row,
			fmt.Sprintf("%.3g", lab.PageRBER(wl, kind.Bits()-1, opt)),
			fmt.Sprintf("%.1f", opt.Get(sv)))
		return m
	})
	rows := make([][]string, len(ms))
	var rberSum float64
	var rberN int
	for i, m := range ms {
		rows[i] = m.row
		for _, v := range m.rber {
			rberSum += v
			rberN++
		}
	}
	b.WriteString(experiments.Table(header, rows))

	if spec.SweepV > 0 {
		if spec.SweepV > chip.Coding().NumVoltages() {
			return nil, fmt.Errorf("scenario: voltage V%d out of range (max V%d)",
				spec.SweepV, chip.Coding().NumVoltages())
		}
		fmt.Fprintf(&b, "\nerror-vs-offset sweep of V%d on wordline %d:\n", spec.SweepV, wls[0])
		offs, curves := lab.SweepCurves(wls[0])
		errs := curves[spec.SweepV-1]
		sweepPoints.Add(int64(len(offs)))
		_, hi := mathx.MinMax(errs)
		for i, o := range offs {
			if int(o)%4 != 0 {
				continue
			}
			bar := int(errs[i] / (hi + 1) * 60)
			fmt.Fprintf(&b, "%6.0f %7.0f %s\n", o, errs[i], strings.Repeat("#", bar))
		}
	}
	out := b.String()
	metrics := map[string]float64{"wordlines": float64(len(wls))}
	if rberN > 0 {
		metrics["mean-rber"] = rberSum / float64(rberN)
	}
	return &Outcome{Payload: out, Render: out, Metrics: metrics}, nil
}
