package ssdsim

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"sentinel3d/internal/ftl"
	"sentinel3d/internal/mathx"
	"sentinel3d/internal/obs"
	"sentinel3d/internal/retry"
)

// Fleet is the online (serving) counterpart of the batch replay Engine:
// N sharded sub-devices, each plain state behind a mutex, servicing
// reads submitted one at a time with a deadline instead of a
// pre-recorded trace. A read is serviced on the goroutine that submits
// it, under its shard's lock; the fleet itself starts no goroutines. It
// is what cmd/flashd serves traffic from.
//
// Three contracts shape it:
//
//   - Backpressure, never buffering: Submit fails fast with ErrQueueFull
//     when QueueDepth submitters already wait for the target shard. The
//     fleet never spawns per-request goroutines and never grows a queue,
//     so overload surfaces to the admission layer instead of as memory.
//   - Deadlines are honoured at the lock: a request whose context is
//     done, or whose FleetRead.Deadline has passed, when it takes its
//     shard's lock is rejected without touching the device
//     (reject-on-arrival), so a backed-up shard cannot burn device time
//     on reads nobody is waiting for.
//   - Deterministic outcomes: a read's retry outcome is a pure function
//     of (fleet seed, page LPN, policy), like the internal/fault
//     injector's pure-hash decisions — never of arrival order or
//     goroutine scheduling. Waiters take a shard's lock in the mutex's
//     order, not FIFO, and no outcome depends on it. Two closed-loop
//     benchmark runs with the same seed therefore observe byte-identical
//     per-read results, which is what makes flashbench reports
//     reproducible.
type Fleet struct {
	cfg      FleetConfig
	samplers map[string]fleetSampler

	mu       sync.RWMutex // guards stopped against accepted submissions' inflight.Add
	stopped  bool
	inflight sync.WaitGroup

	shards []*fleetShard
	router shardRouter
}

// fleetSampler pairs a policy's priced draw table with the salt that
// keys its deterministic per-page outcome stream. The fleet draws from
// the table's grid origin, whose pool for a page type is the page type
// itself.
type fleetSampler struct {
	draws *drawTable
	salt  uint64
}

// FleetConfig parameterizes a Fleet.
type FleetConfig struct {
	// Sim carries the device geometry, bits per cell and the seed of
	// the deterministic outcome streams. Obs is ignored (Metrics below
	// attaches observability). Life and PEFaults are unsupported and
	// rejected: the fleet serves at the samplers' grid origin, and its
	// premapped FTLs inject no program/erase failures.
	Sim Config
	// Shards is the number of independent sub-devices (default 1); it
	// must divide Sim.Geo.Channels, exactly like ReplayConfig.Shards.
	Shards int
	// QueueDepth bounds the submitters waiting for each shard's lock
	// (default 256); a submission that finds QueueDepth already waiting
	// rejects with ErrQueueFull.
	QueueDepth int
	// PremapPages maps LPNs [0, PremapPages) at startup so reads hit
	// valid data (the serving analogue of Precondition). Default 60% of
	// the device's physical pages; capped validation happens in NewFleet.
	PremapPages int64
	// Samplers maps policy names ("sentinel", "table", ...) to retry
	// samplers; Submit selects per read. At least one entry is required.
	Samplers map[string]RetrySampler
	// CorruptRate injects media corruption: each page read independently
	// turns uncorrectable with this probability, drawn from the page's
	// deterministic outcome stream (the serving analogue of the chip-
	// level internal/fault corruption).
	CorruptRate float64
	// Stall, when non-nil, returns an extra wall-clock service delay for
	// a request on the given shard — the chaos hook that simulates a
	// slow die or a hiccuping channel. It runs under the shard's lock, so
	// a stall backs up that shard's waiters exactly like a real slow
	// shard.
	Stall func(shard int) time.Duration
	// Metrics, when non-nil, attaches per-shard queue instrumentation
	// (depth gauges, queue-wait histograms). Needs >= Shards shards.
	Metrics *obs.Registry
}

// FleetRead is one read submitted to the fleet.
type FleetRead struct {
	LPN   int64
	Pages int
	// Policy selects the sampler (must be a FleetConfig.Samplers key).
	Policy string
	// MaxRetries, when positive, caps the retry budget: a page whose
	// sampled outcome needs more retries is failed fast as uncorrectable
	// after MaxRetries attempts instead of burning the full budget. The
	// degradation ladder's fail-fast step sets it.
	MaxRetries int
	// Deadline, when non-zero, is the instant past which the read is
	// rejected with context.DeadlineExceeded instead of serviced. It is
	// checked with the clock reading Submit takes for queue wait, so it
	// costs no timer.
	Deadline time.Time
}

// FleetResult is the outcome of one serviced read.
type FleetResult struct {
	// SimUS is the simulated device service time of the request alone
	// (die sensing + channel transfer, µs), excluding wall-clock queue
	// wait. It is deterministic per (seed, LPN, policy).
	SimUS float64
	// QueueWait is the wall-clock time the request waited for its
	// shard's lock.
	QueueWait time.Duration
	// Shard is the shard that serviced the request.
	Shard int
	// Retries and AuxSenses sum the per-page sampled outcomes.
	Retries   int
	AuxSenses int
	// UsedFallback / Uncorrectable / FailFast flag pages that degraded
	// to the static table, failed ECC, or were cut off by MaxRetries.
	UsedFallback  bool
	Uncorrectable bool
	FailFast      bool
	// UnmappedPages counts pages serviced from the mapping table without
	// touching flash.
	UnmappedPages int
	// Check is an order-independent checksum of the read's deterministic
	// outcome (XOR over pages); benchmark reports accumulate it to prove
	// two runs observed identical results.
	Check uint64
}

// Fleet submission errors. ErrQueueFull is the backpressure signal the
// admission layer converts into 429 + Retry-After; ErrFleetStopped
// rejects submissions after Close began.
var (
	ErrQueueFull    = errors.New("ssdsim: shard queue full")
	ErrFleetStopped = errors.New("ssdsim: fleet stopped")
	// ErrUnknownPolicy reports a FleetRead naming no configured sampler.
	ErrUnknownPolicy = errors.New("ssdsim: unknown policy")
)

// fleetShard is one sub-device: the lock its reads are serviced under,
// the count of submitters waiting for it, and the shard's FTL, which
// NewFleet premaps and every read only translates on.
type fleetShard struct {
	mu      sync.Mutex
	waiting atomic.Int64
	ftl     *ftl.FTL

	depth     *obs.Gauge
	waitUS    *obs.Hist
	rejects   *obs.Counter
	expired   *obs.Counter
	satisfied *obs.Counter
}

// defaultQueueDepth bounds a shard's waiters when the config leaves it zero.
const defaultQueueDepth = 256

// policySalt keys a policy's deterministic outcome stream by name, so
// "sentinel" and "table" reads of the same page draw different outcomes.
func policySalt(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}

// NewFleet validates the configuration, builds the per-shard FTLs and
// premaps the logical space.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	shards, sub, err := splitShards(cfg.Sim, cfg.Shards)
	if err != nil {
		return nil, err
	}
	cfg.Shards = shards
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = defaultQueueDepth
	}
	if cfg.QueueDepth < 0 {
		return nil, fmt.Errorf("ssdsim: negative queue depth %d", cfg.QueueDepth)
	}
	if cfg.CorruptRate < 0 || cfg.CorruptRate > 1 {
		return nil, fmt.Errorf("ssdsim: corrupt rate %g outside [0,1]", cfg.CorruptRate)
	}
	if len(cfg.Samplers) == 0 {
		return nil, fmt.Errorf("ssdsim: fleet needs at least one sampler")
	}
	if cfg.Sim.Life != nil {
		return nil, fmt.Errorf("ssdsim: fleet does not model device lifetime; Sim.Life must be nil")
	}
	if cfg.Sim.PEFaults != nil {
		return nil, fmt.Errorf("ssdsim: fleet does not inject P/E faults; Sim.PEFaults must be nil")
	}
	if cfg.Metrics != nil && cfg.Metrics.Shards() < cfg.Shards {
		return nil, fmt.Errorf("ssdsim: metrics registry has %d shards, fleet needs %d",
			cfg.Metrics.Shards(), cfg.Shards)
	}
	total := int64(cfg.Sim.Geo.PagesTotal())
	if cfg.PremapPages == 0 {
		cfg.PremapPages = total * 6 / 10
	}
	if cfg.PremapPages < 0 || cfg.PremapPages > total*9/10 {
		return nil, fmt.Errorf("ssdsim: premap %d outside [0, 90%% of %d pages]",
			cfg.PremapPages, total)
	}
	f := &Fleet{cfg: cfg, samplers: make(map[string]fleetSampler, len(cfg.Samplers))}
	for name, s := range cfg.Samplers {
		draws, err := newDrawTable(sub, s)
		if err != nil {
			return nil, fmt.Errorf("policy %q: %w", name, err)
		}
		f.samplers[name] = fleetSampler{draws: draws, salt: policySalt(name)}
	}
	f.shards = make([]*fleetShard, cfg.Shards)
	f.router = newShardRouter(cfg.Shards)
	for s := range f.shards {
		ft, err := ftl.New(sub.Geo)
		if err != nil {
			return nil, err
		}
		sh := &fleetShard{ftl: ft}
		if set := cfg.Metrics.Set(s); set != nil {
			sh.depth = set.Gauge("fleet.queue_depth", "requests queued on this shard")
			sh.waitUS = set.WallHist("fleet.queue_wait_us", "wall-clock queue wait per request")
			sh.rejects = set.Counter("fleet.queue_rejects", "submissions rejected by a full queue")
			sh.expired = set.Counter("fleet.deadline_expired", "requests already past deadline at the shard lock")
			sh.satisfied = set.Counter("fleet.reads_serviced", "requests serviced by this shard")
		}
		f.shards[s] = sh
	}
	// Premap ascending: each LPN routes to its owning shard's FTL, the
	// same granule interleaving the replay engine uses.
	for lpn := int64(0); lpn < cfg.PremapPages; lpn++ {
		sh := f.shards[f.router.of(lpn)]
		if _, err := sh.ftl.Write(lpn); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// Shards returns the fleet's shard count.
func (f *Fleet) Shards() int { return len(f.shards) }

// PremapPages returns the number of LPNs mapped at startup — the
// logical footprint load generators should stay inside.
func (f *Fleet) PremapPages() int64 { return f.cfg.PremapPages }

// ShardOf returns the shard a read starting at lpn is serviced on.
func (f *Fleet) ShardOf(lpn int64) int { return f.router.of(lpn) }

// MaxQueueFrac returns the highest waiter occupancy across shards in
// [0, 1] — the degradation ladder's pressure signal.
func (f *Fleet) MaxQueueFrac() float64 {
	frac := 0.0
	for _, sh := range f.shards {
		if q := float64(sh.waiting.Load()) / float64(f.cfg.QueueDepth); q > frac {
			frac = q
		}
	}
	return frac
}

// Submit services one read on the calling goroutine under its shard's
// lock. It fails fast with ErrQueueFull when QueueDepth submitters
// already wait for the shard and with ErrFleetStopped after Close; a
// read whose context is done, or whose Deadline has passed, when it
// takes the lock returns that error without device work. An accepted
// read always gets its reply, so accounting is exact and Close can wait
// for it.
func (f *Fleet) Submit(ctx context.Context, read FleetRead) (FleetResult, error) {
	if read.Pages <= 0 {
		read.Pages = 1
	}
	if read.LPN < 0 {
		return FleetResult{}, fmt.Errorf("ssdsim: negative LPN %d", read.LPN)
	}
	if _, ok := f.samplers[read.Policy]; !ok {
		return FleetResult{}, fmt.Errorf("%w %q", ErrUnknownPolicy, read.Policy)
	}
	s := f.router.of(read.LPN)
	sh := f.shards[s]

	f.mu.RLock()
	if f.stopped {
		f.mu.RUnlock()
		return FleetResult{}, ErrFleetStopped
	}
	// Claim a waiter slot only below QueueDepth, so a submission that
	// is refused never counts as waiting, even for an instant.
	for {
		n := sh.waiting.Load()
		if n >= int64(f.cfg.QueueDepth) {
			f.mu.RUnlock()
			sh.rejects.Inc()
			return FleetResult{}, ErrQueueFull
		}
		if sh.waiting.CompareAndSwap(n, n+1) {
			break
		}
	}
	f.inflight.Add(1)
	f.mu.RUnlock()
	defer f.inflight.Done()

	enqueued := time.Now()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.depth.Set(float64(sh.waiting.Add(-1)))
	now := time.Now()
	wait := now.Sub(enqueued)
	sh.waitUS.Observe(float64(wait) / float64(time.Microsecond))
	err := ctx.Err()
	if err == nil && !read.Deadline.IsZero() && !now.Before(read.Deadline) {
		err = context.DeadlineExceeded
	}
	if err != nil {
		// Reject-on-arrival: the caller stopped waiting (deadline or
		// cancel) before the shard got to it; spend no device time on it.
		sh.expired.Inc()
		return FleetResult{}, err
	}
	if f.cfg.Stall != nil {
		if d := f.cfg.Stall(s); d > 0 {
			time.Sleep(d)
		}
	}
	// One Rand per read, reseeded per served page; it lives on the
	// submitter's stack, off the cache lines other submitters touch.
	var rng mathx.Rand
	res := f.service(s, read, &rng)
	res.QueueWait = wait
	sh.satisfied.Inc()
	return res, nil
}

// Close stops accepting new submissions and returns once every
// accepted read has had its reply (graceful drain — nothing accepted is
// ever dropped).
func (f *Fleet) Close() {
	f.mu.Lock()
	if f.stopped {
		f.mu.Unlock()
		return
	}
	f.stopped = true
	f.mu.Unlock()
	f.inflight.Wait()
}

// service reads every page of the request for shard s, whose lock the
// caller holds. Each page is translated on the FTL of the shard that
// owns its granule, where NewFleet premapped it, so a read that crosses
// a granule boundary finds its pages on the next shard; after premap no
// FTL is written, so reading another shard's FTL needs no lock.
// Outcomes are deterministic per page: the RNG stream is keyed by
// (seed, LPN, policy salt), so neither arrival order nor concurrency
// changes any result; rng is the caller's, reseeded from that key for
// each page.
func (f *Fleet) service(s int, read FleetRead, rng *mathx.Rand) FleetResult {
	pol := f.samplers[read.Policy]
	res := FleetResult{Shard: s}
	for p := 0; p < read.Pages; p++ {
		lpn := read.LPN + int64(p)
		ppn, ok := f.shards[f.router.of(lpn)].ftl.Translate(lpn)
		if !ok {
			res.UnmappedPages++
			res.SimUS += retry.MapLookupUS
			res.Check ^= mathx.Mix3(uint64(lpn), pol.salt, 0xdead)
			continue
		}
		rng.Reseed(mathx.Mix3(f.cfg.Sim.Seed, uint64(lpn), pol.salt))
		pageType := ppn.Page % f.cfg.Sim.Bits
		rec := pol.draws.draw(pageType, pageType, rng)
		retries, aux := int(rec.retries), int(rec.aux)
		uncorrectable := rec.uncorrectable != 0
		if f.cfg.CorruptRate > 0 && rng.Float64() < f.cfg.CorruptRate {
			uncorrectable = true
		}
		// Service time without contention: the die and channel work back
		// to back, priced by the same per-page model as Sim.readPage.
		dieTime, chanTime := rec.dieUS, rec.chanUS
		if read.MaxRetries > 0 && retries > read.MaxRetries {
			// Cut off after MaxRetries attempts: the shortened outcome
			// is repriced.
			retries = read.MaxRetries
			uncorrectable = true
			res.FailFast = true
			dieTime, chanTime = pageCost(pageType, &RetryOutcome{Retries: retries, AuxSenses: aux})
		}
		res.Retries += retries
		res.AuxSenses += aux
		res.UsedFallback = res.UsedFallback || rec.fallback != 0
		res.Uncorrectable = res.Uncorrectable || uncorrectable
		res.SimUS += dieTime + chanTime
		flags := uint64(rec.fallback)
		if uncorrectable {
			flags |= 2
		}
		res.Check ^= mathx.Mix4(uint64(lpn), pol.salt,
			uint64(retries)<<8|uint64(aux)<<2|flags, 0xf1ee7)
	}
	return res
}
