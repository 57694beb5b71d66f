package retry

import (
	"math"

	"sentinel3d/internal/obs"
)

// Metrics bundles the retry layer's observability handles. A nil
// *Metrics (the default) makes every recording call a no-op, so an
// uninstrumented controller pays one nil check per read.
type Metrics struct {
	Reads         *obs.Counter
	Retries       *obs.Counter
	ShavedRetries *obs.Counter
	AuxSenses     *obs.Counter
	LSBReuses     *obs.Counter
	Fallbacks     *obs.Counter
	Uncorrectable *obs.Counter
	// FirstAttempt counts reads that decoded on the very first attempt
	// — the headline number of the warm-start policies.
	FirstAttempt *obs.Counter
	// CacheHits/CacheMisses count WarmStartPolicy reads whose block
	// has start offsets (a hit) or starts at factory defaults (a miss).
	CacheHits   *obs.Counter
	CacheMisses *obs.Counter
	Latency     *obs.Hist
	// OverlapSaved is the per-read latency hidden by pipelined
	// (AR²-style) retry stepping, µs; only overlapping reads observe.
	OverlapSaved *obs.Hist

	// tableStep is the sentinel-voltage-equivalent step of the vendor
	// table the shaved-retries estimate compares against; 0 disables
	// the estimate.
	tableStep float64
}

// NewMetrics binds the retry layer's handles to set; a nil set yields
// a nil (no-op) Metrics. tableStep is the DefaultTablePolicy step the
// shaved-vs-table estimate uses (0 when no table baseline applies).
func NewMetrics(set *obs.Set, tableStep float64) *Metrics {
	if set == nil {
		return nil
	}
	return &Metrics{
		Reads:         set.Counter("retry.reads", "chip-level page reads serviced"),
		Retries:       set.Counter("retry.retries", "re-read attempts after the first read"),
		ShavedRetries: set.Counter("retry.shaved_vs_table", "estimated static-table retries the policy avoided"),
		AuxSenses:     set.Counter("retry.aux_senses", "auxiliary single-voltage sentinel reads"),
		LSBReuses:     set.Counter("retry.lsb_reuses", "sentinel senses served free from an LSB readout"),
		Fallbacks:     set.Counter("retry.fallbacks", "reads that degraded to the fallback path"),
		Uncorrectable: set.Counter("retry.uncorrectable", "reads that exhausted the retry budget"),
		FirstAttempt:  set.Counter("retry.first_attempt_hits", "reads decoded on the first attempt"),
		CacheHits:     set.Counter("retry.cache_hits", "warm-start reads of blocks with start offsets"),
		CacheMisses:   set.Counter("retry.cache_misses", "warm-start reads of blocks without start offsets"),
		Latency:       set.Hist("retry.latency_us", "chip-level read service time, µs"),
		OverlapSaved:  set.Hist("retry.overlap_saved_us", "latency hidden by pipelined retry stepping, µs"),
		tableStep:     tableStep,
	}
}

// record accounts one attempted read. sentinelV is the coding's
// sentinel voltage index, used to translate the final offset vector
// into static-table terms.
func (m *Metrics) record(res *Result, sentinelV int) {
	if m == nil || res.Err != nil {
		return
	}
	m.Reads.Inc()
	m.Retries.Add(int64(res.Retries))
	m.AuxSenses.Add(int64(res.AuxSenses))
	if res.UsedFallback {
		m.Fallbacks.Inc()
	}
	if res.Uncorrectable {
		m.Uncorrectable.Inc()
	}
	if res.OK && res.Retries == 0 {
		m.FirstAttempt.Inc()
	}
	if res.OverlapSavedUS > 0 {
		m.OverlapSaved.Observe(res.OverlapSavedUS)
	}
	m.Latency.Observe(res.Latency)
	// Shaved-vs-table estimate: the table's shape profile is normalized
	// to 1 at the sentinel voltage (see NewDefaultTable), so entry k
	// applies offset -k*Step there. The entry count the table would
	// have needed to reach the read's final offsets is |final|/Step
	// rounded; whatever exceeds the retries actually spent was shaved.
	if res.OK && m.tableStep > 0 && len(res.FinalOffsets) > 0 {
		entries := int(math.Round(math.Abs(res.FinalOffsets.Get(sentinelV)) / m.tableStep))
		if shaved := entries - res.Retries; shaved > 0 {
			m.ShavedRetries.Add(int64(shaved))
		}
	}
}

// lsbReuse counts a sentinel sense served for free from an LSB
// readout (no auxiliary flash operation was issued).
func (m *Metrics) lsbReuse() {
	if m == nil {
		return
	}
	m.LSBReuses.Inc()
}

// cacheHit / cacheMiss account one warm-start lookup; nil-safe like
// every recorder.
func (m *Metrics) cacheHit() {
	if m == nil {
		return
	}
	m.CacheHits.Inc()
}

func (m *Metrics) cacheMiss() {
	if m == nil {
		return
	}
	m.CacheMisses.Inc()
}
