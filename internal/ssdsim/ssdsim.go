// Package ssdsim is a trace-driven SSD simulator in the mould of SSDSim
// (Hu et al.): requests are split into page operations, routed through a
// page-mapped FTL onto a multi-channel/die/plane geometry, and serviced
// under a two-resource (die sensing, channel transfer) latency model in
// which a read's service time depends on its retry count.
//
// Retry counts come from a RetrySampler built empirically on the
// threshold-voltage chip simulator for each read policy, which is how the
// paper's Figure 14 connects chip-level retry behaviour to system-level
// read latency. Every sampler is a grid of per-page-type pools over
// (P/E, retention) stress points — a frozen-stress EmpiricalSampler is the
// 1x1 grid. A drawTable prices every outcome of that grid once, through
// the one per-page cost function (pageCost), into die and channel time;
// the replay Sim and the serving Fleet both draw those priced records.
package ssdsim

import (
	"fmt"
	"slices"

	"sentinel3d/internal/ftl"
	"sentinel3d/internal/mathx"
	"sentinel3d/internal/obs"
	"sentinel3d/internal/parallel"
	"sentinel3d/internal/retry"
	"sentinel3d/internal/trace"
)

// RetryOutcome is the observable cost of one chip-level read.
type RetryOutcome struct {
	// Retries is the number of re-read attempts after the first read.
	Retries int
	// AuxSenses is the number of auxiliary single-voltage reads.
	AuxSenses int
	// UsedFallback records that the read degraded from its primary
	// inference path to the static table (retry.Result.UsedFallback).
	UsedFallback bool
	// Uncorrectable records that ECC never decoded within the retry
	// budget; the SSD returns a media error for such a read.
	Uncorrectable bool
	// Offsets is the final per-boundary read-voltage offset vector of
	// the measured chip-level read. The simulator's latency model never
	// reads it; the slow-read trace (see internal/obs) reports it so a
	// retained record shows which voltages the read ended on.
	Offsets []float64
}

// RetrySampler yields retry outcomes for reads of a given page type
// (0 = LSB ... bits-1 = MSB). The interface is sealed: *EmpiricalSampler
// and *LifetimeSampler are its only implementations, and the simulators
// resolve either one to its stress grid once, at construction, so the
// per-read draw is a direct call with no dispatch.
type RetrySampler interface {
	Sample(pageType int, rng *mathx.Rand) RetryOutcome
	// grid returns the sampler as a (P/E, retention) grid of pools.
	grid() *LifetimeSampler
}

// EmpiricalSampler draws uniformly from per-page-type outcome pools
// measured on the chip simulator.
type EmpiricalSampler struct {
	// PerPage[p] holds the measured outcomes for page type p.
	PerPage [][]RetryOutcome
}

// pool validates the page type in one place for every accessor: an
// out-of-range page type is a wiring bug between the sampler and the
// simulator's bits-per-cell setting, and silently wrapping it (as Sample
// once did) misattributes LSB statistics to MSB pages.
func (e *EmpiricalSampler) pool(pageType int) []RetryOutcome {
	if pageType < 0 || pageType >= len(e.PerPage) {
		panic(fmt.Sprintf("ssdsim: page type %d outside sampler's %d pools",
			pageType, len(e.PerPage)))
	}
	return e.PerPage[pageType]
}

// PageTypes returns the number of page types the sampler covers.
func (e *EmpiricalSampler) PageTypes() int { return len(e.PerPage) }

// grid implements RetrySampler: a frozen-stress sampler is the 1x1 grid
// whose only point every block sits on at any age.
func (e *EmpiricalSampler) grid() *LifetimeSampler {
	return &LifetimeSampler{PEs: []int{0}, Hours: []float64{0}, Pools: []*EmpiricalSampler{e}}
}

// Sample implements RetrySampler.
func (e *EmpiricalSampler) Sample(pageType int, rng *mathx.Rand) RetryOutcome {
	pool := e.pool(pageType)
	if len(pool) == 0 {
		return RetryOutcome{}
	}
	return pool[rng.Intn(len(pool))]
}

// MeanRetries returns the average retry count of page type p's pool.
func (e *EmpiricalSampler) MeanRetries(p int) float64 {
	pool := e.pool(p)
	if len(pool) == 0 {
		return 0
	}
	s := 0
	for _, o := range pool {
		s += o.Retries
	}
	return float64(s) / float64(len(pool))
}

// BuildSampler measures retry outcomes on a chip through a retry
// controller and policy: every page of every listed wordline is read
// reps times. The resulting pools feed the trace-driven simulation.
// Wordlines are measured concurrently; the pools are assembled in wls
// order so the sampler is identical at any worker count.
func BuildSampler(ctl *retry.Controller, pol retry.Policy, b int, wls []int, reps int, seed uint64) (*EmpiricalSampler, error) {
	if reps < 1 {
		return nil, fmt.Errorf("ssdsim: reps must be positive")
	}
	bits := ctl.Chip.Coding().Bits()
	perWL, err := parallel.MapErr(len(wls), func(i int) ([][]RetryOutcome, error) {
		wl := wls[i]
		// Every read of the wordline goes through one handle, which
		// each read redraws, so its cells are derived once.
		op, err := ctl.Begin(b, wl, mathx.Mix4(seed, uint64(wl), 0, 0))
		if err != nil {
			// Bad address or unprogrammed wordline: the controller
			// reports it, so no pre-checks are needed here.
			return nil, fmt.Errorf("ssdsim: %w", err)
		}
		defer op.Close()
		pools := make([][]RetryOutcome, bits)
		for p := 0; p < bits; p++ {
			for rep := 0; rep < reps; rep++ {
				res := ctl.ReadOn(op, p, pol, mathx.Mix4(seed, uint64(wl), uint64(p), uint64(rep)))
				if res.Err != nil {
					return nil, fmt.Errorf("ssdsim: %w", res.Err)
				}
				pools[p] = append(pools[p], RetryOutcome{
					Retries:       res.Retries,
					AuxSenses:     res.AuxSenses,
					UsedFallback:  res.UsedFallback,
					Uncorrectable: res.Uncorrectable,
					Offsets:       append([]float64(nil), res.FinalOffsets...),
				})
			}
		}
		return pools, nil
	})
	if err != nil {
		return nil, err
	}
	out := &EmpiricalSampler{PerPage: make([][]RetryOutcome, bits)}
	for _, pools := range perWL {
		for p := 0; p < bits; p++ {
			out.PerPage[p] = append(out.PerPage[p], pools[p]...)
		}
	}
	return out, nil
}

// Config parameterizes a simulation run.
type Config struct {
	// Geo is the SSD geometry.
	Geo ftl.Geometry
	// Bits per cell: page type of physical page i is i % Bits.
	Bits int
	// Seed drives retry sampling.
	Seed uint64
	// PEFaults optionally injects program/erase failures into the FTL
	// (see internal/fault); retired blocks are counted in the report.
	PEFaults ftl.PEFaultModel
	// Obs, when non-nil, attaches this simulator (and its FTL) to one
	// shard of an observability registry. Nil keeps the replay loop
	// free of instrumentation beyond one branch per request.
	Obs *obs.Set
	// Life, when non-nil, enables dynamic per-block aging: stress
	// evolves during the replay from trace time, FTL erases and the
	// temperature schedule, and a background calibration scheduler
	// competes with host reads for die time. Nil replays frozen at the
	// sampler's measured stress point, exactly as before. The pointed-to
	// config is read-only and may be shared across engine targets.
	Life *LifetimeConfig
}

// DefaultConfig returns a TLC SSD configuration.
func DefaultConfig() Config {
	return Config{
		Geo:  ftl.DefaultGeometry(),
		Bits: 3,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Geo.Validate(); err != nil {
		return err
	}
	if c.Bits < 2 || c.Bits > 4 {
		return fmt.Errorf("ssdsim: bits %d out of [2,4]", c.Bits)
	}
	if c.Geo.PagesPerBlock%c.Bits != 0 {
		return fmt.Errorf("ssdsim: pages per block %d not divisible by %d bits",
			c.Geo.PagesPerBlock, c.Bits)
	}
	if c.Life != nil {
		if err := c.Life.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// levelsOf returns the number of read voltages a page type applies under
// the inverted-Gray coding (1, 2, 4, 8 for pages 0..3).
func levelsOf(pageType int) int { return 1 << pageType }

// Report aggregates a run's results: the deterministic statistics
// (ReportSummary, embedded so every field reads as rep.X) plus the
// lifetime and sensing tallies and per-device rows that travel beside
// them, and the accumulator state.
type Report struct {
	ReportSummary
	// Life summarizes the dynamic-aging machinery when Config.Life was
	// set (zero value otherwise). It is deliberately NOT part of
	// ReportSummary: the frozen replay cells' golden digests pin the
	// summary's rendering, so lifetime statistics travel beside it.
	Life LifetimeStats
	// FlashReads counts page-level reads serviced from flash (one sampler
	// draw each) and AuxSenses sums their auxiliary single-voltage senses,
	// so (FlashReads + TotalRetries + AuxSenses) / FlashReads is the mean
	// sensing operations per flash read. Like Life, both stay outside
	// ReportSummary so the golden digests' field set is unchanged.
	FlashReads int64
	AuxSenses  int64
	// MakespanUS is the simulated completion time of all flash work, µs:
	// the latest die/channel busy-until time over every target. For a
	// saturating burst (every request at t=0), Requests/MakespanUS is
	// the device's simulated throughput — the policy-sensitive
	// counterpart of wall-clock req/s. Outside ReportSummary, like Life.
	MakespanUS float64
	// PerDevice holds one summary per fleet device, in device order,
	// when the replay engine ran with Devices > 1; nil otherwise (a
	// single-device replay is byte-identical to the pre-fleet engine,
	// including this field). Per-device rows never carry the latency
	// vector — the merged report owns it.
	PerDevice []ReportSummary

	// Accumulator state. hist records every read latency into the
	// log-bucketed histogram, which the percentiles come from and the
	// ssdsim.read_latency_us metric mirrors; collect also appends them
	// to ReadLatencies for the exact percentile path.
	collect  bool
	hist     mathx.LogHist
	writeSum float64
}

// ReportSummary is the exported, deterministic view of a Report: the
// statistics, without the accumulator internals. Golden digests hash
// the %v rendering of result payloads, so payloads must not reach the
// Report struct itself — its unexported accumulator state (the
// latency histogram's thousands of buckets) is not part of the pinned
// view.
type ReportSummary struct {
	Requests int
	Reads    int
	Writes   int
	// ReadLatencies holds every read request's latency in replay order,
	// µs. The engine with CollectLatencies fills it and derives exact
	// percentiles from it; in its default histogram mode it is nil and
	// the percentiles are bucket-resolution (see mathx.LogHist), keeping
	// memory O(shards) in the request count.
	ReadLatencies []float64
	MeanReadUS    float64
	P95ReadUS     float64
	P99ReadUS     float64
	MeanWriteUS   float64
	TotalRetries  int64
	GCWrites      int64
	// UncorrectableReads counts page-level reads the device had to fail
	// back to the host (ECC hard failures after the full retry budget).
	// Requests span one or more pages, so this can exceed Reads.
	UncorrectableReads int64
	// FallbackReads counts page-level reads serviced in degraded mode
	// (the policy abandoned its primary inference path mid-read).
	FallbackReads int64
	// RetiredBlocks counts blocks the FTL took out of service after
	// program/erase failures during the run (including preconditioning).
	RetiredBlocks int64
	// UnmappedReads counts page-level reads of never-written LPNs,
	// serviced from the mapping table at retry.MapLookupUS cost
	// without touching flash.
	UnmappedReads int64
	// ReorderedArrivals counts trace records whose raw timestamp ran
	// backwards and whose arrival the streaming parser clamped to the
	// running maximum (see trace.MSRSource). Zero for in-order traces
	// and for sources that do not report reordering.
	ReorderedArrivals int64
}

// Summary extracts the deterministic statistics view.
func (r *Report) Summary() ReportSummary { return r.ReportSummary }

// recordRead accounts one completed read request.
func (r *Report) recordRead(lat float64) {
	r.Reads++
	if r.collect {
		r.ReadLatencies = append(r.ReadLatencies, lat)
	}
	r.hist.Add(lat)
}

// recordWrite accounts one completed write request.
func (r *Report) recordWrite(lat float64) {
	r.Writes++
	r.writeSum += lat
}

// merge folds a shard's report into r. The engine calls it in shard
// order, which keeps every floating-point accumulation — and therefore
// the merged statistics — identical at any worker count.
func (r *Report) merge(o *Report) {
	r.Requests += o.Requests
	r.Reads += o.Reads
	r.Writes += o.Writes
	r.ReadLatencies = append(r.ReadLatencies, o.ReadLatencies...)
	r.writeSum += o.writeSum
	r.hist.Merge(&o.hist)
	r.TotalRetries += o.TotalRetries
	r.FlashReads += o.FlashReads
	r.AuxSenses += o.AuxSenses
	r.GCWrites += o.GCWrites
	r.UncorrectableReads += o.UncorrectableReads
	r.FallbackReads += o.FallbackReads
	r.RetiredBlocks += o.RetiredBlocks
	r.UnmappedReads += o.UnmappedReads
	r.ReorderedArrivals += o.ReorderedArrivals
	r.MakespanUS = max(r.MakespanUS, o.MakespanUS)
	r.Life.mergeLife(o.Life)
}

func (r *Report) finalize() {
	switch {
	case len(r.ReadLatencies) > 0:
		r.MeanReadUS = mathx.Mean(r.ReadLatencies)
		r.P95ReadUS = mathx.Percentile(r.ReadLatencies, 95)
		r.P99ReadUS = mathx.Percentile(r.ReadLatencies, 99)
	case r.hist.Count() > 0:
		r.MeanReadUS = r.hist.Mean()
		r.P95ReadUS = r.hist.Percentile(95)
		r.P99ReadUS = r.hist.Percentile(99)
	}
	if r.Writes > 0 {
		r.MeanWriteUS = r.writeSum / float64(r.Writes)
	}
}

// Sim runs traces against one SSD instance.
type Sim struct {
	cfg   Config
	ftl   *ftl.FTL
	draws *drawTable
	rng   *mathx.Rand
	met   *simMetrics

	dieFree  []float64
	chanFree []float64

	// Hot-path caches. planeDie/planeChan/pageType replace the per-page
	// divisions with table lookups; migProgUS folds the GC migration
	// arithmetic into a constant; wres is reused per-call scratch (one
	// per Sim — Sims are single-goroutine by contract).
	planeDie  []int32
	planeChan []int32
	pageType  []uint8
	migProgUS float64 // GC migration: MSB-page read + program
	wres      ftl.WriteResult

	// Lifetime state (nil when Config.Life is nil — the frozen path pays
	// one nil check per read and draws from the grid origin).
	life *lifetime
}

// senseUS is the die time of one sense of pageType's read voltages.
func senseUS(pageType int) float64 {
	return retry.SenseBaseUS + float64(float64(levelsOf(pageType))*retry.SensePerLevelUS)
}

// pageCost is the per-page read latency model: each attempt (the first
// read plus every retry) senses the page type's read voltages on the
// die, then bursts the page over the channel and through ECC decode;
// each auxiliary single-voltage sense adds one sense and one bare
// transfer. It returns the die (sensing) and channel (transfer +
// decode) time of one page read of pageType with outcome out. A
// drawTable applies it to every sampler outcome ahead of time; the only
// other caller is the Fleet's MaxRetries cut-off, which reprices the
// outcome it shortens. The explicit float64 conversions round each
// product on its own, so no GOARCH fuses them into a multiply-add.
func pageCost(pageType int, out *RetryOutcome) (dieTime, chanTime float64) {
	attempts := float64(out.Retries + 1)
	aux := float64(out.AuxSenses)
	return float64(attempts*senseUS(pageType)) + float64(aux*(retry.SenseBaseUS+retry.SensePerLevelUS)),
		float64(attempts*(retry.TransferUS+retry.ECCDecodeUS)) + float64(aux*retry.TransferUS)
}

// drawRec is one pool outcome as a page read consumes it: pageCost
// already evaluated, the counts narrowed to 32 bits (a read's retries
// and aux senses are bounded by the controller's retry budget, tens at
// most), and the two flags stored as 0/1 so the report adds them
// instead of branching on them.
type drawRec struct {
	dieUS, chanUS float64 // pageCost(pageType, &outcome)
	retries, aux  int32
	// idx is the outcome's index in its sampler pool (-1 for the
	// empty-pool stand-in); only the slow-read trace follows it, to the
	// outcome's Offsets.
	idx                     int32
	fallback, uncorrectable uint8
}

// drawTable is a sampler's stress grid priced once: one drawRec per
// outcome of every (grid pool, page type) pool, in pool order, so a
// read loads one record at the same rng.Intn(len(pool)) index the
// sampler draw would use. It is read-only once built; the Engine shares
// one table across all of its targets, and the Fleet builds one per
// policy.
type drawTable struct {
	grid *LifetimeSampler
	bits int
	// recs[pool*bits+pageType] prices grid.Pools[pool].PerPage[pageType],
	// and outs holds that pool itself (for the slow-read trace's Offsets).
	recs [][]drawRec
	outs [][]RetryOutcome
	// empty[pageType] is what a read of an empty pool costs: the zero
	// outcome, drawn without consuming the RNG (as Sample returns it).
	empty []drawRec
}

// newDrawTable resolves the sampler to its stress grid, verifies the
// grid is well formed and matches cfg's bits-per-cell setting, and
// prices every outcome of it through pageCost.
func newDrawTable(cfg Config, sampler RetrySampler) (*drawTable, error) {
	if sampler == nil {
		return nil, fmt.Errorf("ssdsim: nil sampler")
	}
	g := sampler.grid()
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if g.PageTypes() != cfg.Bits {
		return nil, fmt.Errorf("ssdsim: sampler covers %d page types, config has %d bits",
			g.PageTypes(), cfg.Bits)
	}
	t := &drawTable{grid: g, bits: cfg.Bits, empty: make([]drawRec, cfg.Bits)}
	for pt := range t.empty {
		t.empty[pt] = priceOutcome(pt, &RetryOutcome{}, -1)
	}
	for _, pool := range g.Pools {
		for pt, outs := range pool.PerPage {
			recs := make([]drawRec, len(outs))
			for i := range outs {
				recs[i] = priceOutcome(pt, &outs[i], int32(i))
			}
			t.recs = append(t.recs, recs)
			t.outs = append(t.outs, outs)
		}
	}
	return t, nil
}

// priceOutcome builds outcome out's record for a read of pageType.
func priceOutcome(pageType int, out *RetryOutcome, idx int32) drawRec {
	die, ch := pageCost(pageType, out)
	r := drawRec{dieUS: die, chanUS: ch, retries: int32(out.Retries),
		aux: int32(out.AuxSenses), idx: idx}
	if out.UsedFallback {
		r.fallback = 1
	}
	if out.Uncorrectable {
		r.uncorrectable = 1
	}
	return r
}

// draw returns the record of one outcome drawn from pool k (pool index
// times bits plus pageType). It consumes exactly the RNG draws
// EmpiricalSampler.Sample does on the same pool, so the outcome stream
// is unchanged by pricing ahead.
func (t *drawTable) draw(k, pageType int, rng *mathx.Rand) *drawRec {
	recs := t.recs[k]
	if len(recs) == 0 {
		return &t.empty[pageType]
	}
	return &recs[rng.Intn(len(recs))]
}

// offsets returns the final read-voltage offsets of rec's outcome in
// pool k (nil for the empty-pool stand-in).
func (t *drawTable) offsets(k int, rec *drawRec) []float64 {
	if rec.idx < 0 {
		return nil
	}
	return t.outs[k][rec.idx].Offsets
}

// newSimWith builds a simulator for a validated cfg over draws, which
// must have been built for the same bits-per-cell setting. Only the
// replay Engine builds them, one per (device, shard) target, all on the
// Engine's one table.
func newSimWith(cfg Config, draws *drawTable) (*Sim, error) {
	f, err := ftl.New(cfg.Geo)
	if err != nil {
		return nil, err
	}
	f.Faults = cfg.PEFaults
	f.Obs = ftl.NewMetrics(cfg.Obs)
	s := &Sim{
		cfg:      cfg,
		ftl:      f,
		draws:    draws,
		rng:      mathx.NewRand(cfg.Seed ^ 0x55d51a1),
		met:      newSimMetrics(cfg.Obs),
		dieFree:  make([]float64, cfg.Geo.Dies()),
		chanFree: make([]float64, cfg.Geo.Channels),
	}
	if cfg.Life != nil {
		s.life = newLifetime(cfg)
		f.Wear = s.life // unarmed until beginReplay: precondition churn is not wear
	}
	planes := cfg.Geo.Planes()
	s.planeDie = make([]int32, planes)
	s.planeChan = make([]int32, planes)
	for p := 0; p < planes; p++ {
		s.planeDie[p] = int32(cfg.Geo.Die(p))
		s.planeChan[p] = int32(cfg.Geo.Channel(p))
	}
	s.pageType = make([]uint8, cfg.Geo.PagesPerBlock)
	for p := range s.pageType {
		s.pageType[p] = uint8(p % cfg.Bits)
	}
	s.migProgUS = senseUS(cfg.Bits-1) + programUS
	return s, nil
}

// lpnDedup accumulates LPNs and yields them in ascending unique order
// while keeping memory bounded by the unique count (plus one batch),
// not the trace length. With a known LPN bound it degenerates to a
// bitmap — insert is one OR and the visit order falls out of the word
// scan, no sorting at all; out-of-bound LPNs (a wrong hint, negative
// addresses) spill to the sorted-slice path, so the bound is only ever
// a hint. Without a bound, batches are sorted individually and merged
// into the deduplicated slice, which replaces the old re-sort of the
// whole accumulated set on every fold.
type lpnDedup struct {
	bits   *mathx.Bitset // non-nil when the LPN bound is known
	sorted []int64       // ascending, unique; spill-only in bitmap mode
	batch  []int64
}

// newLPNDedup sizes the dedup for LPNs in [0, maxLPN]; maxLPN <= 0
// means unknown (sorted mode).
func newLPNDedup(maxLPN int64) lpnDedup {
	if maxLPN > 0 {
		return lpnDedup{bits: mathx.NewBitset(maxLPN + 1)}
	}
	return lpnDedup{}
}

// lpnDedupBatch bounds the unsorted batch; 1<<18 int64s is 2 MiB.
const lpnDedupBatch = 1 << 18

func (d *lpnDedup) add(lpn int64) {
	if d.bits != nil && uint64(lpn) < uint64(d.bits.Cap()) {
		d.bits.Set(lpn)
		return
	}
	if d.batch == nil {
		d.batch = make([]int64, 0, lpnDedupBatch)
	}
	d.batch = append(d.batch, lpn)
	if len(d.batch) >= lpnDedupBatch {
		d.compact()
	}
}

// addRange inserts the n consecutive LPNs starting at lpn — one
// request's page span. In bitmap mode with the whole span in range it
// collapses to word-wise ORs; otherwise it falls back to per-page adds.
func (d *lpnDedup) addRange(lpn int64, n int) {
	if d.bits != nil && lpn >= 0 && n > 0 && lpn+int64(n) <= d.bits.Cap() {
		d.bits.SetRange(lpn, int64(n))
		return
	}
	for p := 0; p < n; p++ {
		d.add(lpn + int64(p))
	}
}

// compact folds the batch into the sorted slice: the batch is sorted on
// its own and merged with the (already sorted) accumulated set, so each
// fold costs O(B log B + U) instead of re-sorting all U accumulated
// LPNs every time.
func (d *lpnDedup) compact() {
	if len(d.batch) == 0 {
		return
	}
	slices.Sort(d.batch)
	batch := slices.Compact(d.batch)
	if len(d.sorted) == 0 {
		d.sorted = append(d.sorted, batch...)
		d.batch = d.batch[:0]
		return
	}
	merged := make([]int64, 0, len(d.sorted)+len(batch))
	i, j := 0, 0
	for i < len(d.sorted) && j < len(batch) {
		a, b := d.sorted[i], batch[j]
		switch {
		case a < b:
			merged = append(merged, a)
			i++
		case b < a:
			merged = append(merged, b)
			j++
		default:
			merged = append(merged, a)
			i, j = i+1, j+1
		}
	}
	merged = append(merged, d.sorted[i:]...)
	merged = append(merged, batch[j:]...)
	d.sorted = merged
	d.batch = d.batch[:0]
}

// each yields every accumulated LPN exactly once in ascending order —
// the same order whichever mode accumulated them. In bitmap mode the
// spill slice holds only out-of-universe values (negatives below it,
// over-bound above it), so the three runs concatenate in order.
func (d *lpnDedup) each(fn func(lpn int64) error) error {
	d.compact()
	i := 0
	if d.bits != nil {
		for i < len(d.sorted) && d.sorted[i] < 0 {
			if err := fn(d.sorted[i]); err != nil {
				return err
			}
			i++
		}
		if err := d.bits.VisitErr(fn); err != nil {
			return err
		}
	}
	for ; i < len(d.sorted); i++ {
		if err := fn(d.sorted[i]); err != nil {
			return err
		}
	}
	return nil
}

// replaySlice services a materialized block of requests in order,
// accumulating into rep. It neither reads the FTL's cumulative counters
// nor finalizes, so the engine calls it once per demuxed block and
// settles the report at the end of the run. The engine's block handoff
// recycles fixed-size arrays through a freelist, and servicing them
// directly skips a Source interface call per request. Draining a block
// counts as one chunk drain for the paced metric flush — so the flush
// schedule stays a pure function of the demuxed stream — and an
// unconditional flushMetrics at end of run settles the exact totals.
func (s *Sim) replaySlice(reqs []trace.Request, rep *Report) error {
	for i := range reqs {
		if err := s.service(reqs[i], rep); err != nil {
			return err
		}
	}
	s.met.chunkDrained(rep)
	s.ftl.FlushObs()
	return nil
}

// flushMetrics force-publishes the metrics that mirror rep, the report
// this Sim's replay accumulates into; callers invoke it once after the
// last replay call so the registry holds the run's exact totals.
func (s *Sim) flushMetrics(rep *Report) {
	s.met.flush(rep)
	s.ftl.FlushObs()
}

// service runs one request to completion. The op is tested once per
// request, not per page, and the request completes when its last page
// does.
func (s *Sim) service(r trace.Request, rep *Report) error {
	rep.Requests++
	end := r.ArriveUS
	if r.Op == trace.Read {
		for p := 0; p < r.Pages; p++ {
			end = max(end, s.readPage(r.ArriveUS, r.LPN+int64(p), rep))
		}
		rep.recordRead(end - r.ArriveUS)
		return nil
	}
	for p := 0; p < r.Pages; p++ {
		done, err := s.writePage(r.ArriveUS, r.LPN+int64(p))
		if err != nil {
			return err
		}
		end = max(end, done)
	}
	rep.recordWrite(end - r.ArriveUS)
	return nil
}

// beginReplay marks the end of preconditioning: from here on, erase
// wear counts against the per-block lifetime state. The engine's replay
// pass calls it; preconditioning happens before it.
func (s *Sim) beginReplay() {
	if s.life != nil {
		s.life.armed = true
	}
}

// flushCounters copies the FTL's cumulative counters (which include
// preconditioning work) and the makespan into the report.
func (s *Sim) flushCounters(rep *Report) {
	rep.GCWrites = s.ftl.GCWrites
	rep.RetiredBlocks = s.ftl.BadBlocks
	rep.MakespanUS = s.makespan()
	if s.life != nil {
		s.life.finish(rep, s.cfg.Obs, rep.MakespanUS)
	}
}

// readPage services one page read: sense on the die (repeated per retry),
// then transfer per attempt on the channel. The drawn outcome arrives
// priced (see drawTable) and the die/channel timing is branch-free, so
// a mapped read takes no data-dependent branch.
func (s *Sim) readPage(arrive float64, lpn int64, rep *Report) float64 {
	ppn, ok := s.ftl.Translate(lpn)
	if !ok {
		// Read of never-written data: serviced from the mapping table
		// without touching flash (returns zeros), at the latency model's
		// documented lookup cost. It completes through the same
		// request-completion path as flash reads and is counted so
		// reports distinguish it from media service.
		rep.UnmappedReads++
		s.met.unmappedRead()
		return arrive + retry.MapLookupUS
	}
	pageType := int(s.pageType[ppn.Page])
	die := s.planeDie[ppn.Plane]
	k := pageType
	if s.life != nil {
		// Dynamic aging: charge any due calibration to the die, then draw
		// from the grid cell matching the block's *current* stress.
		s.beforeOp(die, arrive)
		k += s.life.poolIndex(s.draws.grid, ppn.Plane, ppn.Block) * s.draws.bits
	}
	rec := s.draws.draw(k, pageType, s.rng)
	rep.FlashReads++
	rep.TotalRetries += int64(rec.retries)
	rep.AuxSenses += int64(rec.aux)
	rep.UncorrectableReads += int64(rec.uncorrectable)
	rep.FallbackReads += int64(rec.fallback)

	ch := s.planeChan[ppn.Plane]
	senseStart := max(arrive, s.dieFree[die])
	senseEnd := senseStart + rec.dieUS
	s.dieFree[die] = senseEnd
	xferStart := max(senseEnd, s.chanFree[ch])
	xferEnd := xferStart + rec.chanUS
	s.chanFree[ch] = xferEnd
	if s.met != nil {
		wait := (senseStart - arrive) + (xferStart - senseEnd)
		s.met.pageRead(rec, s.draws, k, lpn, ppn.Plane, ppn.Block, ppn.Page,
			wait, xferEnd-arrive)
	}
	return xferEnd
}

// Page program and block erase times of the simulated TLC die.
const (
	programUS float64 = 700
	eraseUS   float64 = 5000
)

// writePage services one page write: transfer on the channel, program on
// the die; GC work (migrations, erases) occupies the die.
func (s *Sim) writePage(arrive float64, lpn int64) (float64, error) {
	res := &s.wres
	if s.life != nil {
		// Advance the retention clock before the FTL write so any GC
		// erase it triggers stamps the block with the current device time.
		s.life.tickUS(arrive)
	}
	if err := s.ftl.WriteInto(lpn, res); err != nil {
		return 0, err
	}
	die := s.planeDie[res.Target.Plane]
	ch := s.planeChan[res.Target.Plane]
	if l := s.life; l != nil && l.calibOn {
		s.chargeCalib(die, arrive) // programs queue behind due calibrations too
	}

	xferStart := max(arrive, s.chanFree[ch])
	xferEnd := xferStart + retry.TransferUS
	s.chanFree[ch] = xferEnd

	// GC migrations: an internal read (mid page cost) plus a program per
	// page, and the erase.
	dieTime := programUS + float64(float64(len(res.Migrations))*s.migProgUS) +
		float64(float64(res.ErasedBlocks)*eraseUS)

	progStart := max(xferEnd, s.dieFree[die])
	progEnd := progStart + dieTime
	s.dieFree[die] = progEnd
	return progEnd, nil
}

// makespan returns the simulated completion time of all flash work
// issued so far: the maximum die/channel busy-until time (see
// Report.MakespanUS).
func (s *Sim) makespan() float64 {
	var m float64
	for _, t := range s.dieFree {
		if t > m {
			m = t
		}
	}
	for _, t := range s.chanFree {
		if t > m {
			m = t
		}
	}
	return m
}
