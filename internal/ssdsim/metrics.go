package ssdsim

import (
	"sentinel3d/internal/mathx"
	"sentinel3d/internal/obs"
)

// simMetrics is one shard's instrumentation state. The replay hot path
// must stay allocation-free and add at most a few nanoseconds per
// request, so nothing here touches shared memory per read: counters
// accumulate in plain fields and histograms in local mathx.LogHists,
// all owned by the shard's single replaying goroutine, and flush()
// publishes the deltas into the registry cells at chunk boundaries.
// Chunk boundaries are produced by the engine's single demux goroutine,
// so what gets published — like everything else in the replay — is a
// pure function of the trace, not of the worker count. The slow-read
// ring is the one per-read registry touch, and costs one atomic load
// once warm (see SlowRing.Rejects).
//
// A nil *simMetrics (observability off) makes every hook a no-op.
type simMetrics struct {
	reads, writes     *obs.Counter
	retries           *obs.Counter
	auxSenses         *obs.Counter
	uncorrectable     *obs.Counter
	fallbacks         *obs.Counter
	unmapped          *obs.Counter
	reorderedArrivals *obs.Counter
	queueWait         *obs.Hist
	readLat           *obs.Hist
	ring              *obs.SlowRing

	// Local accumulators, flushed as deltas.
	dReads, dWrites, dRetries, dAux      int64
	dUncorr, dFallback, dUnmapped        int64
	queueCur, queuePrev, latCur, latPrev mathx.LogHist
	seq                                  int64 // page-read sequence, for slow records
	drains                               int64 // chunk drains since the last flush
}

// metricsFlushChunks paces the histogram flush: publishing diffs the
// full bucket arrays (cost proportional to their size, not to the
// samples), so flushing every chunk drain was measurable at replay
// rates. Every 8th drain keeps scrapes fresh within ~250k requests at
// the default chunking while making the flush cost negligible; the
// pacing counts drains, so it is as deterministic as the chunking.
const metricsFlushChunks = 8

func newSimMetrics(set *obs.Set) *simMetrics {
	if set == nil {
		return nil
	}
	return &simMetrics{
		reads:             set.Counter("ssdsim.read_requests", "read requests completed"),
		writes:            set.Counter("ssdsim.write_requests", "write requests completed"),
		retries:           set.Counter("ssdsim.retries", "chip-level re-read attempts"),
		auxSenses:         set.Counter("ssdsim.aux_senses", "auxiliary single-voltage senses"),
		uncorrectable:     set.Counter("ssdsim.uncorrectable_reads", "page reads failed back to the host"),
		fallbacks:         set.Counter("ssdsim.fallback_reads", "page reads serviced in degraded mode"),
		unmapped:          set.Counter("ssdsim.unmapped_reads", "page reads of never-written LPNs"),
		reorderedArrivals: set.Counter("ssdsim.reordered_arrivals", "trace records with out-of-order timestamps, clamped on replay"),
		queueWait:         set.Hist("ssdsim.queue_wait_us", "per-page-read die + channel queueing, µs"),
		readLat:           set.Hist("ssdsim.read_latency_us", "read request latency, µs"),
		ring:              set.SlowRing(),
	}
}

// pageRead accounts one flash page read of record rec, drawn from pool
// k of draws. wait is the time the read spent queued behind the die and
// channel; the remaining arguments describe the read for the slow-trace
// record.
func (m *simMetrics) pageRead(rec *drawRec, draws *drawTable, k int, lpn int64, plane, block, page int, wait, total float64) {
	if m == nil {
		return
	}
	m.dRetries += int64(rec.retries)
	m.dAux += int64(rec.aux)
	m.dUncorr += int64(rec.uncorrectable)
	m.dFallback += int64(rec.fallback)
	m.queueCur.Add(wait)
	m.seq++
	if !m.ring.Rejects(total) {
		m.ring.Admit(obs.SlowRead{
			Seq:            m.seq,
			LPN:            lpn,
			Plane:          plane,
			Block:          block,
			Page:           page,
			Retries:        int(rec.retries),
			AuxSenses:      int(rec.aux),
			VoltageOffsets: draws.offsets(k, rec),
			QueueUS:        wait,
			SenseUS:        rec.dieUS,
			XferUS:         rec.chanUS,
			TotalUS:        total,
			Uncorrectable:  rec.uncorrectable != 0,
			Fallback:       rec.fallback != 0,
		})
	}
}

func (m *simMetrics) unmappedRead() {
	if m == nil {
		return
	}
	m.dUnmapped++
	m.seq++
	m.queueCur.Add(0)
}

func (m *simMetrics) readDone(lat float64) {
	if m == nil {
		return
	}
	m.dReads++
	m.latCur.Add(lat)
}

func (m *simMetrics) writeDone() {
	if m == nil {
		return
	}
	m.dWrites++
}

// chunkDrained is the paced flush called by the shard's replaying
// goroutine each time a sub-trace drains; every metricsFlushChunks-th
// drain publishes. The owner must still call flush once at end of
// replay so the registry holds the exact totals.
func (m *simMetrics) chunkDrained() {
	if m == nil {
		return
	}
	m.drains++
	if m.drains%metricsFlushChunks == 0 {
		m.flush()
	}
}

// flush publishes the accumulated deltas into the registry cells and
// rearms the accumulators. Scrapes between flushes see consistent,
// deterministic prefixes of the shard's stream.
func (m *simMetrics) flush() {
	if m == nil {
		return
	}
	m.reads.Add(m.dReads)
	m.writes.Add(m.dWrites)
	m.retries.Add(m.dRetries)
	m.auxSenses.Add(m.dAux)
	m.uncorrectable.Add(m.dUncorr)
	m.fallbacks.Add(m.dFallback)
	m.unmapped.Add(m.dUnmapped)
	m.dReads, m.dWrites, m.dRetries, m.dAux = 0, 0, 0, 0
	m.dUncorr, m.dFallback, m.dUnmapped = 0, 0, 0
	m.queueWait.Flush(&m.queueCur, &m.queuePrev)
	m.queuePrev = m.queueCur
	m.readLat.Flush(&m.latCur, &m.latPrev)
	m.latPrev = m.latCur
}
