package ssdsim

import (
	"sentinel3d/internal/mathx"
	"sentinel3d/internal/obs"
)

// simMetrics is one shard's instrumentation state. The replay hot path
// must stay allocation-free and add at most a few nanoseconds per
// request, so nothing here touches shared memory per read. The request
// and page-read counts and the read-latency histogram are not tallied
// here at all: the shard's Report already keeps them, and flush()
// publishes whatever the Report gained since the last flush. Only the
// per-page queue wait, which the Report does not keep, accumulates in
// a local mathx.LogHist. Everything is owned by the shard's single
// replaying goroutine, and flushes happen at chunk boundaries, which
// the engine's single demux goroutine produces — so what gets
// published, like everything else in the replay, is a pure function of
// the trace, not of the worker count. The slow-read ring is the one
// per-read registry touch, and costs one atomic load once warm (see
// SlowRing.Rejects).
//
// A nil *simMetrics (observability off) makes every hook a no-op.
type simMetrics struct {
	counters  [len(reportCounters)]*obs.Counter
	queueWait *obs.Hist
	readLat   *obs.Hist
	ring      *obs.SlowRing

	// pub and latPub are the Report totals and latency histogram as of
	// the last flush; queueCur/queuePrev the local queue-wait histogram
	// and its published state.
	pub                 [len(reportCounters)]int64
	latPub              mathx.LogHist
	queueCur, queuePrev mathx.LogHist
	seq                 int64 // page-read sequence, for slow records
	drains              int64 // chunk drains since the last flush
}

// reportCounters are the registry counters that mirror a Report total,
// in registration order.
var reportCounters = [...]struct {
	name, help string
	total      func(*Report) int64
}{
	{"ssdsim.read_requests", "read requests completed", func(r *Report) int64 { return int64(r.Reads) }},
	{"ssdsim.write_requests", "write requests completed", func(r *Report) int64 { return int64(r.Writes) }},
	{"ssdsim.retries", "chip-level re-read attempts", func(r *Report) int64 { return r.TotalRetries }},
	{"ssdsim.aux_senses", "auxiliary single-voltage senses", func(r *Report) int64 { return r.AuxSenses }},
	{"ssdsim.uncorrectable_reads", "page reads failed back to the host", func(r *Report) int64 { return r.UncorrectableReads }},
	{"ssdsim.fallback_reads", "page reads serviced in degraded mode", func(r *Report) int64 { return r.FallbackReads }},
	{"ssdsim.unmapped_reads", "page reads of never-written LPNs", func(r *Report) int64 { return r.UnmappedReads }},
	{"ssdsim.reordered_arrivals", "trace records with out-of-order timestamps, clamped on replay",
		func(r *Report) int64 { return r.ReorderedArrivals }},
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
	m := &simMetrics{}
	for i, c := range reportCounters {
		m.counters[i] = set.Counter(c.name, c.help)
	}
	m.queueWait = set.Hist("ssdsim.queue_wait_us", "per-page-read die + channel queueing, µs")
	m.readLat = set.Hist("ssdsim.read_latency_us", "read request latency, µs")
	m.ring = set.SlowRing()
	return m
}

// pageRead observes one flash page read of record rec, drawn from pool
// k of draws: wait is the time the read spent queued behind the die and
// channel; the remaining arguments describe the read for the slow-trace
// record.
func (m *simMetrics) pageRead(rec *drawRec, draws *drawTable, k int, lpn int64, plane, block, page int, wait, total float64) {
	if m == nil {
		return
	}
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
	m.seq++
	m.queueCur.Add(0)
}

// chunkDrained is the paced flush called by the shard's replaying
// goroutine each time a sub-trace drains into rep; every
// metricsFlushChunks-th drain publishes. The owner must still call
// flush once at end of replay so the registry holds the exact totals.
func (m *simMetrics) chunkDrained(rep *Report) {
	if m == nil {
		return
	}
	m.drains++
	if m.drains%metricsFlushChunks == 0 {
		m.flush(rep)
	}
}

// flush publishes what rep and the queue-wait histogram gained since
// the last flush into the registry cells. Scrapes between flushes see
// consistent, deterministic prefixes of the shard's stream.
func (m *simMetrics) flush(rep *Report) {
	if m == nil {
		return
	}
	for i, c := range reportCounters {
		v := c.total(rep)
		m.counters[i].Add(v - m.pub[i])
		m.pub[i] = v
	}
	m.queueWait.Flush(&m.queueCur, &m.queuePrev)
	m.queuePrev = m.queueCur
	m.readLat.Flush(&rep.hist, &m.latPub)
	m.latPub = rep.hist
}
