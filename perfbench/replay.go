package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"sentinel3d/internal/experiments"
	"sentinel3d/internal/flash"
	"sentinel3d/internal/ftl"
	"sentinel3d/internal/mathx"
	"sentinel3d/internal/obs"
	"sentinel3d/internal/parallel"
	"sentinel3d/internal/physics"
	"sentinel3d/internal/retry"
	"sentinel3d/internal/sentinel"
	"sentinel3d/internal/ssdsim"
	"sentinel3d/internal/trace"
)

// replayWorkload replays one synthetic MSR volume through the sharded
// replay engine, repeatedly, for the timed phase. Every pass replays
// the same trace from fresh device state, so every pass must produce
// the same report.
type replayWorkload struct {
	// volume is the MSR workload the trace generator imitates.
	volume string
	// requests is the trace length.
	requests int
	// devices is the striped fleet width.
	devices int
	// binary replays an S3DT buffer encoded during setup; otherwise the
	// generator streams the trace into both engine passes.
	binary bool
	// lifetime turns on dynamic aging with a chip-trained grid sampler;
	// otherwise the sampler is measured at one frozen stress point.
	lifetime bool
}

// replayGeometry is the 4-channel device the scenario layer and
// tracesim replay against.
var replayGeometry = ftl.Geometry{
	Channels: 4, ChipsPerChan: 1, DiesPerChip: 2, PlanesPerDie: 2,
	BlocksPerPlane: 32, PagesPerBlock: 192,
}

// wornPE and wornHours are the frozen stress point of the chip-trained
// sampler (the scenario layer's "worn" age: 5000 P/E, one year).
const (
	wornPE    = 5000
	wornHours = physics.YearHours
)

// chunkRequests is the engine's commit granularity in the benchmark.
// The engine polls its context once per chunk; the benchmark's context
// records those polls, so each chunk is one sample of wall latency.
const chunkRequests = 1 << 14

// setupReps is how many times a run performs its setup; setup_s is the
// median. Only the last setup is kept for the timed phase.
const setupReps = 3

// hoursPerSecond ages the replay_write fleet: prxy_0's mean
// inter-arrival time is about 227 µs, so 2M requests span about 450
// trace-seconds, which this rate stretches to about one device-year.
const hoursPerSecond = 20

// replaySetup is what one setup produces.
type replaySetup struct {
	sampler ssdsim.RetrySampler
	open    trace.Opener
	buf     []byte
	times   map[string]float64
}

func (w *replayWorkload) spec() (trace.WorkloadSpec, error) {
	ws, err := trace.WorkloadByName(w.volume)
	if err != nil {
		return ws, err
	}
	// The scenario layer's footprint: 60% of one device.
	ws.WorkingSetPages = int64(replayGeometry.PagesTotal()) * 6 / 10
	return ws, nil
}

func traceSeed(seed uint64) uint64 { return mathx.Mix(seed, 0x7ace) }

// setup trains the sentinel model, builds the aged evaluation chips and
// their samplers, and (for binary replay) encodes the trace. rep keys
// the model cache, so every repetition pays for training.
func (w *replayWorkload) setup(rep int, seed uint64, reg *obs.Registry, tr *tracer, parent int) (*replaySetup, error) {
	scale := experiments.Quick()
	scale.Name = fmt.Sprintf("perfbench-%d", rep)
	scale.Obs = reg
	times := map[string]float64{}
	timed := func(name string, fn func() error) error {
		return timeChild(tr, parent, times, name, fn)
	}
	var model *sentinel.Model
	if err := timed("sentinel.train", func() (err error) {
		model, err = scale.TrainModel(flash.TLC, 1)
		return err
	}); err != nil {
		return nil, err
	}
	hours := []float64{wornHours}
	if w.lifetime {
		hours = experiments.LifetimeGridHours(wornHours)
	}
	var pools []*ssdsim.EmpiricalSampler
	for _, h := range hours {
		cfg := scale.ChipConfig(flash.TLC, 2)
		eng, err := scale.Engine(model, cfg)
		if err != nil {
			return nil, err
		}
		var chip *flash.Chip
		if err := timed("flash.eval_chip", func() error {
			chip, err = scale.BuildEvalChip(flash.TLC, 2, eng, wornPE, h)
			return err
		}); err != nil {
			return nil, err
		}
		ctl, err := scale.Controller(chip, scale.MaxRetries)
		if err != nil {
			return nil, err
		}
		var wls []int
		for wl := 0; wl < cfg.WordlinesPerBlock(); wl += 2 {
			wls = append(wls, wl)
		}
		if err := timed("retry.build_sampler", func() error {
			s, err := ssdsim.BuildSampler(ctl, retry.NewSentinelPolicy(eng), 0, wls, 3, 12)
			pools = append(pools, s)
			return err
		}); err != nil {
			return nil, err
		}
	}
	out := &replaySetup{times: times}
	if w.lifetime {
		out.sampler = &ssdsim.LifetimeSampler{PEs: []int{wornPE}, Hours: hours, Pools: pools}
	} else {
		out.sampler = pools[0]
	}
	ws, err := w.spec()
	if err != nil {
		return nil, err
	}
	out.open = trace.GeneratorOpener(ws, w.requests, traceSeed(seed))
	if w.binary {
		if err := timed("trace.s3dt_encode", func() error {
			g, err := trace.NewGenerator(ws, w.requests, traceSeed(seed))
			if err != nil {
				return err
			}
			out.buf, err = trace.EncodeBinarySource(g)
			return err
		}); err != nil {
			return nil, err
		}
		if out.open, err = trace.BinaryOpener(out.buf); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (w *replayWorkload) simConfig(seed uint64) ssdsim.Config {
	cfg := ssdsim.DefaultConfig()
	cfg.Geo = replayGeometry
	cfg.Seed = seed
	if w.lifetime {
		cfg.Life = &ssdsim.LifetimeConfig{
			BasePE:             wornPE,
			BaseRetentionHours: wornHours,
			Schedule:           physics.SquareWave(physics.RoomTempC, 50, 24, 0.5),
			HoursPerSecond:     hoursPerSecond,
			CalibPeriodHours:   730,
			CalibUS:            300,
		}
	}
	return cfg
}

// chunkProbe is the replay engine's context. The engine polls Err once
// per committed chunk of the replay pass (and every 4096 requests of
// the precondition pass); while armed, the probe turns the gaps between
// polls into per-chunk wall latencies and spans.
type chunkProbe struct {
	context.Context
	armed  bool
	last   time.Time
	lats   []float64
	tr     *tracer
	parent int
}

func (p *chunkProbe) Err() error {
	if p.armed {
		now := time.Now()
		if !p.last.IsZero() {
			p.lats = append(p.lats, float64(now.Sub(p.last).Nanoseconds())/1e3)
			p.tr.add("ssdsim.chunk", p.parent, p.last, now, 0)
		}
		p.last = now
	}
	return nil
}

// passOut is one replay pass's deterministic output.
type passOut struct {
	Summary   ssdsim.ReportSummary
	Life      ssdsim.LifetimeStats
	PerDevice []ssdsim.ReportSummary
}

func checkReport(rep *ssdsim.Report) error {
	if rep.Requests != rep.Reads+rep.Writes {
		return fmt.Errorf("report: %d requests != %d reads + %d writes", rep.Requests, rep.Reads, rep.Writes)
	}
	if len(rep.PerDevice) == 0 {
		return nil
	}
	var sum ssdsim.ReportSummary
	for _, d := range rep.PerDevice {
		sum.Requests += d.Requests
		sum.Reads += d.Reads
		sum.Writes += d.Writes
		sum.TotalRetries += d.TotalRetries
		sum.GCWrites += d.GCWrites
		sum.UncorrectableReads += d.UncorrectableReads
		sum.UnmappedReads += d.UnmappedReads
	}
	if sum.Requests != rep.Requests || sum.Reads != rep.Reads || sum.Writes != rep.Writes ||
		sum.TotalRetries != rep.TotalRetries || sum.GCWrites != rep.GCWrites ||
		sum.UncorrectableReads != rep.UncorrectableReads || sum.UnmappedReads != rep.UnmappedReads {
		return fmt.Errorf("report: per-device sums %+v disagree with the merged report", sum)
	}
	return nil
}

func (w *replayWorkload) run(cfg runConfig, tr *tracer) (*result, error) {
	res := newResult()
	root := tr.begin("run", 0)
	defer tr.end(root)

	// Setup, setupReps times; the last one is kept and instrumented.
	var setupReg *obs.Registry
	var st *replaySetup
	var setupS []float64
	for rep := 0; rep < setupReps; rep++ {
		var rtr *tracer
		if rep == setupReps-1 && cfg.traced {
			setupReg, rtr = obs.NewRegistry(1), tr
		}
		id := rtr.begin("setup", root)
		c0 := cpuSeconds()
		s, err := w.setup(rep, cfg.seed, setupReg, rtr, id)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, cpuSeconds()-c0)
		rtr.end(id)
		st = s
		runtime.GC()
	}
	res.e2e["setup_s"] = median(append([]float64(nil), setupS...))

	var reg *obs.Registry
	if cfg.traced {
		reg = obs.NewRegistry(w.devices)
	}
	timedID := tr.begin("timed", root)
	probe := &chunkProbe{Context: context.Background(), tr: tr}
	eng, err := ssdsim.NewEngine(ssdsim.ReplayConfig{
		Sim: w.simConfig(cfg.seed), Devices: w.devices, ChunkRequests: chunkRequests,
		Precondition: true, Metrics: reg, Ctx: probe,
	}, st.sampler)
	if err != nil {
		return nil, err
	}
	var passID, stageID int
	opens := 0
	open := func() (trace.Source, error) {
		opens++
		if opens%2 == 0 { // the replay pass follows the precondition pass
			tr.end(stageID)
			stageID = tr.begin("ssdsim.replay_pass", passID)
			probe.armed, probe.last, probe.parent = true, time.Time{}, stageID
		}
		return st.open()
	}

	// The replay demux plus its workers stay within the machine's CPUs.
	prev := parallel.SetWorkers(max(1, runtime.NumCPU()-1))
	defer parallel.SetWorkers(prev)
	startPeakRSS()
	rt0 := readRuntime()
	var first []byte
	var firstRep *ssdsim.Report
	var passes, requests, uncorr int64
	var wall, cpu float64
	start := time.Now()
	for passes == 0 || time.Since(start) < cfg.duration {
		passID = tr.begin("ssdsim.Engine.Replay", timedID)
		stageID = tr.begin("ssdsim.precondition_pass", passID)
		t0, c0 := time.Now(), cpuSeconds()
		rep, err := eng.Replay(open)
		wall += time.Since(t0).Seconds()
		cpu += cpuSeconds() - c0
		probe.armed = false
		tr.end(stageID)
		tr.end(passID)
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		if err := checkReport(rep); err != nil {
			return nil, err
		}
		out, err := json.Marshal(passOut{rep.Summary(), rep.Life, rep.PerDevice})
		if err != nil {
			return nil, err
		}
		if first == nil {
			first, firstRep = out, rep
		} else if string(out) != string(first) {
			return nil, fmt.Errorf("replay pass %d differs from pass 0", passes)
		}
		passes++
		requests += int64(rep.Requests)
		uncorr += rep.UncorrectableReads
		// Collect the finished pass's device state now, so that the peak
		// RSS does not depend on when the collector happens to run.
		runtime.GC()
	}
	rt1 := readRuntime()
	tr.end(timedID)

	rep := firstRep
	res.det = first
	res.attempted, res.failed = requests, uncorr
	res.e2e["ops_per_cpu_s"] = float64(requests) / cpu
	res.layers["ops_per_wall_s"] = float64(requests) / wall
	res.e2e["max_rss_mib"] = peakRSSMiB()
	sort.Float64s(probe.lats)
	res.e2e["wall_p50_us"] = quantile(probe.lats, 0.50)
	L := res.layers
	L["ssdsim.chunk_us_p99"] = quantile(probe.lats, 0.99)
	res.e2e["sim_read_mean_us"] = rep.MeanReadUS
	res.e2e["sim_read_p99_us"] = rep.P99ReadUS
	res.e2e["retries_per_read"] = float64(rep.TotalRetries) / float64(rep.Reads)
	res.e2e["ok_frac"] = 1 - float64(rep.UncorrectableReads)/float64(rep.Reads)
	runtimeLayer(rt0, rt1, requests, res.runtime)
	res.info = fmt.Sprintf("%d passes of %d requests, %d chunk samples", passes, rep.Requests, len(probe.lats))

	L["ssdsim.sim_write_mean_us"] = rep.MeanWriteUS
	L["ssdsim.device_req_imbalance"] = imbalance(rep)
	L["ssdsim.calibrations"] = float64(rep.Life.Calibrations)
	L["ssdsim.calib_busy_us"] = rep.Life.CalibBusyUS
	L["ssdsim.run_erases"] = float64(rep.Life.RunErases)
	L["ssdsim.max_block_wear"] = float64(rep.Life.MaxBlockWear)
	if !cfg.traced {
		return res, nil
	}
	if err := w.layers(cfg, tr, root, st, setupS[setupReps-1], setupReg, reg, rep, passes, wall, res); err != nil {
		return nil, err
	}
	return res, nil
}

// imbalance is max ÷ mean of the per-device request counts (1 for a
// single device).
func imbalance(rep *ssdsim.Report) float64 {
	if len(rep.PerDevice) == 0 {
		return 1
	}
	maxN, sum := 0, 0
	for _, d := range rep.PerDevice {
		sum += d.Requests
		maxN = max(maxN, d.Requests)
	}
	return float64(maxN) * float64(len(rep.PerDevice)) / float64(sum)
}

// layers fills the per-layer metrics of a traced run: setup spans and
// counters, registry counters of the timed phase, isolated per-call
// costs of each layer the replay runs, and the backlog guard.
func (w *replayWorkload) layers(cfg runConfig, tr *tracer, root int, st *replaySetup, setupLast float64,
	setupReg, reg *obs.Registry, rep *ssdsim.Report, passes int64, wall float64, res *result) error {
	L := res.layers
	setupSum := 0.0
	for _, name := range []string{"sentinel.train", "flash.eval_chip", "retry.build_sampler", "trace.s3dt_encode"} {
		L[name+"_s"] = st.times[name]
		setupSum += st.times[name]
	}
	L["setup.children_frac"] = setupSum / setupLast
	ss := setupReg.Snapshot()
	chipReads := float64(counter(ss, "retry.reads"))
	L["retry.chip_reads"] = chipReads
	L["retry.us_per_chip_read"] = st.times["retry.build_sampler"] * 1e6 / chipReads
	L["retry.retries_per_chip_read"] = float64(counter(ss, "retry.retries")) / chipReads
	L["sentinel.infers"] = float64(counter(ss, "sentinel.infers"))

	snap := reg.Snapshot()
	qw := hist(snap, "ssdsim.queue_wait_us")
	flashReads := float64(qw.Count())
	L["ssdsim.queue_wait_us_mean"] = qw.Mean()
	reads := float64(counter(snap, "ssdsim.read_requests"))
	L["ssdsim.aux_senses_per_read"] = float64(counter(snap, "ssdsim.aux_senses")) / reads
	hostWrites := float64(counter(snap, "ftl.host_writes"))
	L["ftl.gc_relocations_per_host_write"] = float64(counter(snap, "ftl.gc_relocations")) / hostWrites
	L["ftl.erases"] = float64(counter(snap, "ftl.erases")) / float64(passes)

	ws, err := w.spec()
	if err != nil {
		return err
	}
	n := float64(rep.Requests)
	replayNS := wall * 1e9 / (n * float64(passes))
	L["ssdsim.replay_ns_per_req"] = replayNS
	pre, pass := tr.total("ssdsim.precondition_pass"), tr.total("ssdsim.replay_pass")
	L["ssdsim.precondition_ns_per_req"] = pre * 1e9 / (n * float64(passes))

	id := tr.begin("isolated", root)
	defer tr.end(id)
	genNS, err := timeGenerator(tr, id, ws, w.requests/4, traceSeed(cfg.seed))
	if err != nil {
		return err
	}
	L["trace.gen_ns_per_req"] = genNS
	srcNS := genNS
	if w.binary {
		if srcNS, err = timeDecode(tr, id, st.buf); err != nil {
			return err
		}
		L["trace.s3dt_decode_ns_per_req"] = srcNS
	}
	f, err := timeFTL(tr, id, st.open, w.devices)
	if err != nil {
		return err
	}
	L["ftl.write_ns"], L["ftl.translate_ns"] = f.writeNS, f.translateNS
	L["ssdsim.sampler_draw_ns"] = timeSampler(tr, id, st.sampler)
	L["mathx.loghist_add_ns"], L["mathx.loghist_merge_ns"] = timeLogHist(tr, id)

	// Attribution per replayed request: the trace source runs in both
	// engine passes; FTL, sampler and histogram costs scale with the
	// page writes, flash page reads and read requests the registry
	// counted over all passes.
	perReq := func(count float64) float64 { return count / (n * float64(passes)) }
	srcShare := 2 * srcNS
	ftlShare := f.writeNS*perReq(hostWrites) + f.translateNS*perReq(flashReads)
	drawShare := L["ssdsim.sampler_draw_ns"] * perReq(flashReads)
	histShare := L["mathx.loghist_add_ns"] * perReq(reads)
	L["ssdsim.engine_self_ns_per_req"] = replayNS - srcShare - ftlShare - drawShare - histShare
	if w.binary {
		// The read path: the replay pass without trace decoding and FTL
		// page writes.
		passNS := pass * 1e9 / (n * float64(passes))
		L["share.read_path_frac"] = (passNS - srcNS - f.writeNS*f.writesPerReq) / replayNS
	} else {
		L["share.generator_frac"] = srcShare / replayNS
	}

	// Backlog guard: the modelled device must not saturate, or the
	// simulated latency would depend on run length.
	hid := tr.begin("backlog_half", id)
	half, err := w.halfReplay(cfg.seed, st.sampler)
	tr.end(hid)
	if err != nil {
		return err
	}
	L["ssdsim.backlog_ratio"] = half / rep.MeanReadUS
	if math.Abs(half/rep.MeanReadUS-1) > 0.1 {
		return fmt.Errorf("backlog guard: sim_read_mean_us %.1f at half length vs %.1f at full length", half, rep.MeanReadUS)
	}
	return nil
}
