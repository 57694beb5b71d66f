package ssdsim

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"sentinel3d/internal/mathx"
	"sentinel3d/internal/obs"
	"sentinel3d/internal/parallel"
	"sentinel3d/internal/trace"
)

// ReplayConfig parameterizes the sharded streaming replay engine.
type ReplayConfig struct {
	// Sim is the full-device configuration; the engine splits it into
	// per-shard sub-devices, and replicates it per fleet device when
	// Devices > 1.
	Sim Config
	// Shards is the number of independent sub-devices per device
	// (default 1). It must divide Sim.Geo.Channels: each shard owns a
	// disjoint set of channels (and the chips, dies and planes behind
	// them) plus its own FTL partition, so shards share no mutable state
	// and replay concurrently.
	Shards int
	// Devices is the fleet size (default 1). Each device is a full
	// Sim.Geo instance with its own FTL, fault state and Mix3-split
	// seed; one trace replays across the whole fleet through the stripe
	// map (see stripeMap). Devices == 1 reproduces the single-device
	// engine bit for bit.
	Devices int
	// Replicate switches the fleet from RAID-0 striping to replication:
	// every device holds the full address space, reads round-robin
	// across devices by granule, and every write is serviced by every
	// device. The merged report counts device-serviced work, so a
	// replicated write contributes Devices requests.
	Replicate bool
	// ChunkRequests is the commit granularity of the streaming replay
	// (default 131072): cancellation is checked once per chunk, and every
	// committed chunk is serviced in full. Peak memory holds a bounded
	// number of request blocks regardless of trace length.
	ChunkRequests int
	// CollectLatencies switches the report from the O(1)-memory
	// log-bucketed histogram (the default) to appending every read
	// latency, for exact percentiles.
	CollectLatencies bool
	// Precondition makes a first pass over the trace that maps every LPN
	// it touches on each target's FTL, in ascending order and at no
	// simulated time, so reads hit valid data (SSDSim warms the device
	// the same way).
	Precondition bool
	// Metrics, when non-nil, attaches each (device, shard) target's
	// simulator to registry shard device*Shards+shard (the registry must
	// have at least Devices*Shards shards). It supersedes Sim.Obs, which
	// the engine overwrites per target — a single Set shared across
	// targets would break the deterministic-merge contract. Everything
	// published is deterministic except the per-target req/s and
	// per-device fleet gauges, which Snapshot.Deterministic strips.
	Metrics *obs.Registry
	// Ctx, when non-nil, cancels a replay cooperatively (the CLIs wire
	// SIGINT/SIGTERM here): the replay pass stops at its next chunk
	// boundary, the precondition pass at its next batch, the paced
	// per-target metric flushes are settled, and Replay returns the
	// merged partial report alongside the context's error — an
	// interrupt flushes what was serviced instead of dying mid-stream.
	Ctx context.Context
}

// defaultChunkRequests holds 4 MiB of requests (32 bytes each) per
// committed chunk.
const defaultChunkRequests = 1 << 17

// Engine replays traces against a fleet of sharded SSD simulations.
// Requests are routed to a device by the stripe map and to a shard
// within it by local LPN (shard = first local LPN's granule mod
// Shards); every target services its sub-stream on its own Sim, and
// the per-target reports merge in fixed (device, shard) order — so the
// output is byte-identical at any worker count, and a 1-device 1-shard
// engine reproduces a plain in-order replay on one Sim exactly (the
// package tests keep that sequential loop as their reference).
//
// The Engine is the package's only replay entry point: a materialized
// trace replays through trace.SliceOpener on a 1-shard engine with
// CollectLatencies and Precondition.
//
// An Engine is immutable configuration; each Replay call builds fresh
// fleet state, so one Engine can replay many traces.
type Engine struct {
	cfg ReplayConfig
	// draws is the sampler priced once (see drawTable), shared read-only
	// by every target of every replay.
	draws  *drawTable
	stripe stripeMap
	router shardRouter
}

// NewEngine validates the configuration. Shards, Devices and
// ChunkRequests default to 1, 1 and defaultChunkRequests when zero.
func NewEngine(cfg ReplayConfig, sampler RetrySampler) (*Engine, error) {
	shards, sub, err := splitShards(cfg.Sim, cfg.Shards)
	if err != nil {
		return nil, err
	}
	cfg.Shards = shards
	if cfg.Devices == 0 {
		cfg.Devices = 1
	}
	if cfg.Devices < 0 {
		return nil, fmt.Errorf("ssdsim: negative device count %d", cfg.Devices)
	}
	if cfg.ChunkRequests == 0 {
		cfg.ChunkRequests = defaultChunkRequests
	}
	if cfg.ChunkRequests < 0 {
		return nil, fmt.Errorf("ssdsim: negative chunk size %d", cfg.ChunkRequests)
	}
	if cfg.Metrics != nil && cfg.Metrics.Shards() < cfg.Devices*cfg.Shards {
		return nil, fmt.Errorf("ssdsim: metrics registry has %d shards, fleet needs %d",
			cfg.Metrics.Shards(), cfg.Devices*cfg.Shards)
	}
	draws, err := newDrawTable(sub, sampler)
	if err != nil {
		return nil, err
	}
	return &Engine{
		cfg:    cfg,
		draws:  draws,
		stripe: newStripeMap(cfg.Devices, cfg.Replicate),
		router: newShardRouter(cfg.Shards),
	}, nil
}

// splitShards resolves a shard count (zero means one) and returns it
// with the validated per-shard sub-device configuration: cfg with
// 1/shards of its channels. The replay Engine and the serving Fleet
// split a device by this one rule.
func splitShards(cfg Config, shards int) (int, Config, error) {
	if shards == 0 {
		shards = 1
	}
	if shards < 0 {
		return 0, Config{}, fmt.Errorf("ssdsim: negative shard count %d", shards)
	}
	if cfg.Geo.Channels%shards != 0 {
		return 0, Config{}, fmt.Errorf("ssdsim: %d shards do not divide %d channels",
			shards, cfg.Geo.Channels)
	}
	cfg.Geo.Channels /= shards
	return shards, cfg, cfg.Validate()
}

// targetConfig derives target (d, s)'s sub-device configuration: 1/Shards
// of the channels, and an RNG stream split from the seed with the same
// Mix-based scheme the experiment engine uses for its fan-out — first
// across devices, then across shards, each split skipped at count 1 so
// a 1-device 1-shard engine keeps the seed untouched.
func (c ReplayConfig) targetConfig(d, s int) Config {
	sub := c.Sim
	sub.Geo.Channels = c.Sim.Geo.Channels / c.Shards
	seed := c.Sim.Seed
	if c.Devices > 1 {
		seed = mathx.Mix3(seed, uint64(d), uint64(c.Devices))
	}
	if c.Shards > 1 {
		seed = mathx.Mix3(seed, uint64(s), uint64(c.Shards))
	}
	sub.Seed = seed
	sub.Obs = c.Metrics.Set(d*c.Shards + s)
	return sub
}

// shardGranule is the LPN-range interleaving unit (64 pages = 256 KiB):
// shards own round-robin granules of the (device-local) logical space
// rather than single pages, so a multi-page request almost always falls
// inside one shard's range (mean spans are a few pages) and each
// shard's footprint stays ~1/Shards of the trace's. Per-page
// interleaving would put every spanned page in several shards'
// footprints and inflate per-shard space usage several-fold.
const shardGranule = 64

// shardGranuleShift is log2(shardGranule), for the divide-free routers.
const shardGranuleShift = 6

// shardRouter routes a request by its first (device-local) LPN's
// granule; the replay Engine and the serving Fleet share it. The fine
// interleaving balances shards even on traces whose footprint is a few
// hot ranges; negative LPNs (malformed traces) route to shard 0, which
// services them exactly like the unsharded Sim would.
type shardRouter struct {
	n int64
	// mask is n-1 when n is a power of two, else -1; of then masks
	// instead of dividing.
	mask int64
}

func newShardRouter(shards int) shardRouter {
	r := shardRouter{n: int64(shards), mask: -1}
	if r.n&(r.n-1) == 0 {
		r.mask = r.n - 1
	}
	return r
}

// of returns lpn's shard in [0, n).
func (r shardRouter) of(lpn int64) int {
	if lpn < 0 {
		return 0
	}
	g := lpn >> shardGranuleShift
	if r.mask >= 0 {
		return int(g & r.mask)
	}
	return int(g % r.n)
}

// denseHintBudgetPages caps the fleet-wide dense-L2P hint: the packed
// mapping array costs 8 bytes per page per target, so 1<<25 entries
// split across the targets bounds the hint's footprint at 256 MiB.
// Traces whose per-device address space exceeds the per-target share
// simply keep the map-based FTL path — the hint is performance-only.
const denseHintBudgetPages = int64(1) << 25

// preconditionBitmapBudgetBits caps the fleet-wide precondition dedup
// bitmaps at 1 Gibit (128 MiB) across all targets; bigger address
// spaces fall back to the sort-based dedup.
const preconditionBitmapBudgetBits = int64(1) << 30

// buildSims constructs the fleet's per-target simulators in target
// order. globalBound, when positive, is the highest global LPN the
// trace can touch; it converts through the stripe map into a per-device
// dense-mapping hint (ftl.SetLPNBound) when the fleet-wide budget
// allows. The hint is performance-only: reports are byte-identical with
// and without it.
func (e *Engine) buildSims(globalBound int64) ([]*Sim, error) {
	n := e.cfg.Devices * e.cfg.Shards
	hint := int64(0)
	if lb := e.stripe.localBound(globalBound); lb > 0 && lb+1 <= denseHintBudgetPages/int64(n) {
		hint = lb
	}
	sims := make([]*Sim, n)
	for d := 0; d < e.cfg.Devices; d++ {
		for s := 0; s < e.cfg.Shards; s++ {
			sim, err := newSimWith(e.cfg.targetConfig(d, s), e.draws)
			if err != nil {
				return nil, err
			}
			if hint > 0 {
				sim.ftl.SetLPNBound(hint)
			}
			sims[d*e.cfg.Shards+s] = sim
		}
	}
	return sims, nil
}

// Replay streams the trace through the fleet and returns the merged
// report. The opener is invoked once per pass (twice with
// Precondition), so it must yield identical streams on every call; a
// returned source that implements io.Closer is closed when its pass
// ends. Sources that know their LPN bound (the synthetic generator, the
// binary trace format) are probed for it before any simulator state is
// built, which sizes the dense FTL mapping and dedup bitmaps.
func (e *Engine) Replay(open trace.Opener) (*Report, error) {
	rep, _, err := e.replay(open)
	return rep, err
}

// replay is Replay that also returns the per-target simulators, in
// target order, so package tests can inspect their final state.
func (e *Engine) replay(open trace.Opener) (*Report, []*Sim, error) {
	if open == nil {
		return nil, nil, fmt.Errorf("ssdsim: nil trace opener")
	}
	src, err := open()
	if err != nil {
		return nil, nil, err
	}
	var bound int64
	if m, ok := src.(interface{ MaxLPN() int64 }); ok {
		bound = m.MaxLPN()
	}
	sims, err := e.buildSims(bound)
	if err != nil {
		closeSource(src)
		return nil, nil, err
	}
	reps := make([]*Report, len(sims))
	for t := range reps {
		reps[t] = e.newReport()
	}
	if e.cfg.Precondition {
		if err := e.preconditionPass(sims, src, e.stripe.localBound(bound)); err != nil {
			return nil, nil, err
		}
		if src, err = open(); err != nil {
			return nil, nil, err
		}
	}
	busy := make([]float64, len(sims))
	var canceled error
	if err := e.replayPass(sims, reps, src, busy); err != nil {
		if cerr := e.ctxErr(); cerr != nil && errors.Is(err, cerr) {
			canceled = err // merge and return the partial report below
		} else {
			return nil, nil, err
		}
	}
	e.publishGauges(reps, busy)
	// Online per-device merge in fixed (device, shard) order: each
	// device's shards fold into a device report, the device reports fold
	// into the run report, and with a fleet the device summaries land on
	// PerDevice — all independent of worker count. Merging a lone device
	// into the empty run report copies it exactly, so a 1-device replay
	// equals a plain shard-order merge and carries no PerDevice rows.
	out := e.newReport()
	for d := 0; d < e.cfg.Devices; d++ {
		dev := e.newReport()
		for s := 0; s < e.cfg.Shards; s++ {
			t := d*e.cfg.Shards + s
			sims[t].flushCounters(reps[t])
			dev.merge(reps[t])
		}
		out.merge(dev)
		if e.cfg.Devices > 1 {
			dev.finalize()
			sum := dev.Summary()
			sum.ReadLatencies = nil
			out.PerDevice = append(out.PerDevice, sum)
		}
	}
	out.finalize()
	return out, sims, canceled
}

// publishGauges records the wall-clock throughput gauges: per-target
// req/s, and with a fleet, per-device request counts and busy-time
// shares. All of them are nondeterministic by nature and stripped by
// Snapshot.Deterministic.
func (e *Engine) publishGauges(reps []*Report, busy []float64) {
	if e.cfg.Metrics == nil {
		return
	}
	for t := range reps {
		if busy[t] > 0 {
			e.cfg.Metrics.Set(t).Gauge("ssdsim.shard_req_per_sec",
				"wall-clock replay throughput of this shard").
				Set(float64(reps[t].Requests) / busy[t])
		}
	}
	if e.cfg.Devices == 1 {
		return
	}
	var total float64
	for _, b := range busy {
		total += b
	}
	for d := 0; d < e.cfg.Devices; d++ {
		devBusy, devReqs := 0.0, 0
		for s := 0; s < e.cfg.Shards; s++ {
			devBusy += busy[d*e.cfg.Shards+s]
			devReqs += reps[d*e.cfg.Shards+s].Requests
		}
		set := e.cfg.Metrics.Set(d * e.cfg.Shards)
		set.Gauge("ssdsim.fleet_device_reqs",
			"requests this fleet device serviced in the last replay").
			Set(float64(devReqs))
		if total > 0 {
			set.Gauge("ssdsim.fleet_device_busy_frac",
				"this device's share of the fleet's replay service time").
				Set(devBusy / total)
		}
	}
}

// ctxErr reports the configured context's cancellation state; a nil
// context never cancels.
func (e *Engine) ctxErr() error {
	if e.cfg.Ctx == nil {
		return nil
	}
	return e.cfg.Ctx.Err()
}

func (e *Engine) newReport() *Report {
	return &Report{collect: e.cfg.CollectLatencies}
}

// preconditionPass streams the trace once, deduplicating each target's
// (device-local) LPNs, then warms the target FTLs concurrently. Per
// target the write order is ascending unique, so the warmed FTL state
// depends only on the set of LPNs the trace touches.
// Replicated fleets warm every device with the full trace footprint,
// since any device can be asked to serve any granule's reads after a
// failover and every write lands everywhere.
func (e *Engine) preconditionPass(sims []*Sim, src trace.Source, localBound int64) error {
	defer closeSource(src)
	dedupBound := localBound
	if dedupBound <= 0 || dedupBound+1 > preconditionBitmapBudgetBits/int64(len(sims)) {
		dedupBound = 0
	}
	deds := make([]lpnDedup, len(sims))
	for t := range deds {
		deds[t] = newLPNDedup(dedupBound)
	}
	nShards := e.cfg.Shards
	replicate := e.cfg.Replicate && e.cfg.Devices > 1
	blk := make([]trace.Request, trace.BlockRequests)
	for k := len(blk); k == len(blk); {
		// The warm-up pass has no partial result worth keeping, so a
		// cancelled precondition simply aborts (checked once per block).
		if err := e.ctxErr(); err != nil {
			return err
		}
		var err error
		if k, err = trace.ReadBlock(src, blk, true); err != nil {
			return err
		}
		for _, r := range blk[:k] {
			dev, local := e.stripe.route(r.LPN)
			s := e.router.of(local)
			if replicate {
				for dd := 0; dd < e.cfg.Devices; dd++ {
					deds[dd*nShards+s].addRange(local, r.Pages)
				}
				continue
			}
			deds[dev*nShards+s].addRange(local, r.Pages)
		}
	}
	if err := parallel.ForEachErr(len(sims), func(t int) error {
		return deds[t].each(func(lpn int64) error {
			return sims[t].ftl.WriteInto(lpn, &sims[t].wres)
		})
	}); err != nil {
		return err
	}
	return closeSource(src)
}

// reqBlockSize is the block-handoff unit: 4096 requests (128 KiB) keeps
// per-block bookkeeping amortized to fractions of a nanosecond per
// request while bounding how much decoded-but-unserviced work a chunk
// can hold.
const reqBlockSize = 4096

// reqBlock is one fixed-size unit of the demux→worker handoff. Blocks
// recycle through a freelist channel instead of being allocated per
// chunk, so a steady-state replay allocates nothing per request.
type reqBlock struct {
	n    int
	reqs [reqBlockSize]trace.Request
}

// blockMsg carries one filled block to the worker that owns its target.
type blockMsg struct {
	t   int
	blk *reqBlock
}

// demux is one replay pass's routing state: per-target partial blocks
// being filled, and — when more than one worker is running — per-worker
// queues plus the shared freelist. Target t is statically assigned to
// worker t mod workers, which preserves per-target FIFO order without
// any cross-worker coordination; errs[t] and busy[t] are written only
// by the goroutine that services target t.
type demux struct {
	sims    []*Sim
	reps    []*Report
	busy    []float64
	errs    []error
	partial []*reqBlock
	workers int
	queues  []chan blockMsg
	free    chan *reqBlock
}

// serviceBlock replays one block on its target, accounting wall time
// and latching the target's first error. After a target errs, its
// later blocks are skipped (the run is abandoned and the report
// discarded, so the skipped work is invisible).
func (d *demux) serviceBlock(t int, blk *reqBlock) {
	if d.errs[t] != nil {
		return
	}
	start := time.Now()
	err := d.sims[t].replaySlice(blk.reqs[:blk.n], d.reps[t])
	d.busy[t] += time.Since(start).Seconds()
	if err != nil {
		d.errs[t] = err
	}
}

// flush hands target t's partial block off for servicing: inline on the
// caller's goroutine when the pass is single-worker (the block is reset
// and kept as the target's buffer — zero channel traffic), or through
// the owning worker's queue otherwise.
func (d *demux) flush(t int) {
	blk := d.partial[t]
	if blk == nil || blk.n == 0 {
		return
	}
	if d.queues == nil {
		d.serviceBlock(t, blk)
		blk.n = 0
		return
	}
	d.queues[t%d.workers] <- blockMsg{t: t, blk: blk}
	d.partial[t] = nil
}

// worker services its queue until the demux closes it, recycling every
// block through the freelist. The freelist's capacity covers every
// block in existence, so the send never blocks.
func (d *demux) worker(w int) {
	for msg := range d.queues[w] {
		d.serviceBlock(msg.t, msg.blk)
		msg.blk.n = 0
		d.free <- msg.blk
	}
}

// replayPass streams the trace through the fleet in committed chunks of
// ChunkRequests. Within a chunk, requests route into per-target blocks
// that are handed off as they fill — pipelining decode with replay when
// workers are available — and every partial block flushes at the chunk
// boundary in target order, so a chunk is fully serviced before the
// next one starts and cancellation (checked once per chunk, before any
// of its requests are read) always lands on a whole-chunk boundary.
//
// Determinism: the demux depends only on the stream, each target's
// blocks are serviced in stream order on that target's Sim by exactly
// one goroutine, and block boundaries — which pace the metric flushes —
// are identical whether blocks are serviced inline (one worker) or
// through the queues. The worker count changes only which goroutine
// runs a block, never any state it sees.
func (e *Engine) replayPass(sims []*Sim, reps []*Report, src trace.Source, busy []float64) error {
	defer closeSource(src)
	// Preconditioning is over: per-block lifetime wear starts counting.
	for _, sim := range sims {
		sim.beginReplay()
	}
	nTargets := len(sims)
	d := &demux{
		sims:    sims,
		reps:    reps,
		busy:    busy,
		errs:    make([]error, nTargets),
		partial: make([]*reqBlock, nTargets),
	}
	workers := parallel.Workers()
	if workers > nTargets {
		workers = nTargets
	}
	var workersDone chan struct{}
	if workers > 1 {
		d.workers = workers
		// Freelist capacity: every target's partial plus a few blocks in
		// flight per worker; sized to the total block population so
		// recycling sends never block.
		d.free = make(chan *reqBlock, nTargets+4*workers+4)
		for i := 0; i < cap(d.free); i++ {
			d.free <- new(reqBlock)
		}
		d.queues = make([]chan blockMsg, workers)
		for w := range d.queues {
			d.queues[w] = make(chan blockMsg, 4)
		}
		workersDone = make(chan struct{})
		go func() {
			defer close(workersDone)
			parallel.RunWorkers(workers, d.worker)
		}()
	}
	shutdown := func() {
		if workersDone == nil {
			return
		}
		for _, q := range d.queues {
			close(q)
		}
		<-workersDone
		workersDone = nil
	}
	defer shutdown()

	nShards := e.cfg.Shards
	replicate := e.cfg.Replicate && e.cfg.Devices > 1
	blk := make([]trace.Request, trace.BlockRequests)
	var canceled, perr error
	eof := false
	for !eof && canceled == nil && perr == nil {
		// Cancellation is checked once per chunk, before any of its
		// requests are read: a canceled replay stops with every committed
		// chunk fully serviced, so the partial report stays internally
		// consistent.
		if err := e.ctxErr(); err != nil {
			canceled = err
			break
		}
		for n, k := 0, 0; n < e.cfg.ChunkRequests && !eof && perr == nil; n += k {
			// A block never crosses the chunk boundary; a short one is
			// the end of the trace.
			want := min(len(blk), e.cfg.ChunkRequests-n)
			k, perr = trace.ReadBlock(src, blk[:want], false)
			eof = k < want
			for _, r := range blk[:k] {
				dev, local := e.stripe.route(r.LPN)
				s := e.router.of(local)
				if replicate {
					if r.Op == trace.Write {
						for dd := 0; dd < e.cfg.Devices; dd++ {
							d.append(dd*nShards+s, r)
						}
						continue
					}
					d.append(dev*nShards+s, r)
					continue
				}
				r.LPN = local
				d.append(dev*nShards+s, r)
			}
		}
		if perr != nil {
			// A trace error abandons the run (the caller discards the
			// report), so the chunk's buffered prefix is dropped unserviced.
			break
		}
		for t := 0; t < nTargets; t++ {
			d.flush(t)
		}
	}
	shutdown()
	if perr != nil {
		return perr
	}
	for _, err := range d.errs {
		if err != nil {
			return err
		}
	}
	if rr, ok := src.(interface{ Reordered() int64 }); ok && eof {
		// Clean end of trace: collect the source's reordering count
		// (streaming parsers that clamp out-of-order arrivals report it;
		// other sources simply lack the method). The demux is
		// stream-global, so the count is accounted to target 0 rather
		// than split; merge sums it back into the run total. (On
		// cancellation the stream was never drained, so there is no count
		// to collect.)
		reps[0].ReorderedArrivals = rr.Reordered()
	}
	// Settle the paced metric flushes: after the last block the registry
	// must mirror the pass's reports exactly — on cancellation, the
	// partial totals of everything serviced so far.
	for t := range sims {
		sims[t].flushMetrics(reps[t])
	}
	if err := closeSource(src); err != nil && canceled == nil {
		return err
	}
	return canceled
}

// append buffers one routed request into target t's partial block,
// flushing it when full.
func (d *demux) append(t int, r trace.Request) {
	blk := d.partial[t]
	if blk == nil {
		if d.free != nil {
			blk = <-d.free
		} else {
			blk = new(reqBlock)
		}
		d.partial[t] = blk
	}
	blk.reqs[blk.n] = r
	blk.n++
	if blk.n == reqBlockSize {
		d.flush(t)
	}
}

// closeSource closes a source that owns a resource (e.g. an MSR file).
// The built-in closers are idempotent, so the engine's belt-and-braces
// deferred close is safe.
func closeSource(src trace.Source) error {
	if c, ok := src.(io.Closer); ok {
		return c.Close()
	}
	return nil
}
