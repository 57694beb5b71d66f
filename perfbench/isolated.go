package main

import (
	"fmt"
	"time"

	"sentinel3d/internal/ftl"
	"sentinel3d/internal/mathx"
	"sentinel3d/internal/obs"
	"sentinel3d/internal/physics"
	"sentinel3d/internal/ssdsim"
	"sentinel3d/internal/trace"
)

// This file times single layers in isolation, on the inputs the traced
// workload fed them, so that the replay's per-request cost can be split
// by layer without spans inside the program.

// stripeGranule is the engine's default RAID-0 striping unit in pages.
const stripeGranule = 64

// isolatedRequests caps the requests the FTL timing replays.
const isolatedRequests = 1 << 19

// isolatedReps is how many times each isolated timing repeats; the
// median repetition is reported, so a burst of machine noise during one
// of them does not move the result.
const isolatedReps = 5

// nsPer runs fn, which performs n operations, isolatedReps times, each
// as a span under parent, and returns the median nanoseconds per
// operation.
func nsPer(tr *tracer, parent int, name string, n int, fn func() error) (float64, error) {
	per := make([]float64, 0, isolatedReps)
	for i := 0; i < isolatedReps; i++ {
		id := tr.begin(name, parent)
		t0 := time.Now()
		err := fn()
		d := time.Since(t0)
		tr.end(id)
		if err != nil {
			return 0, err
		}
		per = append(per, float64(d.Nanoseconds())/float64(n))
	}
	return median(per), nil
}

// drain pulls every request out of src.
func drain(src trace.Source) (int, error) {
	n := 0
	for {
		_, ok, err := src.Next()
		if err != nil || !ok {
			return n, err
		}
		n++
	}
}

// timeGenerator drains the synthetic generator alone.
func timeGenerator(tr *tracer, parent int, ws trace.WorkloadSpec, n int, seed uint64) (float64, error) {
	return nsPer(tr, parent, "trace.Generator.Next", n, func() error {
		g, err := trace.NewGenerator(ws, n, seed)
		if err != nil {
			return err
		}
		got, err := drain(g)
		if err == nil && got != n {
			err = fmt.Errorf("generator yielded %d of %d requests", got, n)
		}
		return err
	})
}

// timeDecode drains an S3DT buffer alone.
func timeDecode(tr *tracer, parent int, buf []byte) (float64, error) {
	src, err := trace.NewBinarySource(buf)
	if err != nil {
		return 0, err
	}
	n := src.Len()
	return nsPer(tr, parent, "trace.BinarySource.Next", n, func() error {
		src, err := trace.NewBinarySource(buf)
		if err != nil {
			return err
		}
		got, err := drain(src)
		if err == nil && got != n {
			err = fmt.Errorf("decoder yielded %d of %d records", got, n)
		}
		return err
	})
}

// ftlCost is the FTL's cost per page write and per page translation,
// and the pages written and read per request of the device's stream.
type ftlCost struct{ writeNS, translateNS, writesPerReq, readsPerReq float64 }

// timeFTL replays device 0's share of the trace prefix through one
// FTL of the replay geometry: the precondition writes (untimed), then
// the host write pages in trace order, then a translation per read
// page.
func timeFTL(tr *tracer, parent int, open trace.Opener, devices int) (ftlCost, error) {
	src, err := open()
	if err != nil {
		return ftlCost{}, err
	}
	var writes, reads []int64
	var maxLPN int64
	routed := 0
	for i := 0; i < isolatedRequests; i++ {
		r, ok, err := src.Next()
		if err != nil {
			return ftlCost{}, err
		}
		if !ok {
			break
		}
		g := r.LPN / stripeGranule
		if int(g%int64(devices)) != 0 {
			continue
		}
		routed++
		local := g/int64(devices)*stripeGranule + r.LPN%stripeGranule
		for p := int64(0); p < int64(r.Pages); p++ {
			if r.Op == trace.Write {
				writes = append(writes, local+p)
			} else {
				reads = append(reads, local+p)
			}
			maxLPN = max(maxLPN, local+p)
		}
	}
	f, err := ftl.New(replayGeometry)
	if err != nil {
		return ftlCost{}, err
	}
	f.SetLPNBound(maxLPN)
	seen := make([]bool, maxLPN+1)
	for _, l := range append(append([]int64(nil), writes...), reads...) {
		seen[l] = true
	}
	var wr ftl.WriteResult
	for l, ok := range seen {
		if ok {
			if err := f.WriteInto(int64(l), &wr); err != nil {
				return ftlCost{}, err
			}
		}
	}
	c := ftlCost{writesPerReq: float64(len(writes)) / float64(routed), readsPerReq: float64(len(reads)) / float64(routed)}
	if c.writeNS, err = nsPer(tr, parent, "ftl.WriteInto", max(1, len(writes)), func() error {
		for _, l := range writes {
			if err := f.WriteInto(l, &wr); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return c, err
	}
	c.translateNS, err = nsPer(tr, parent, "ftl.Translate", max(1, len(reads)), func() error {
		for _, l := range reads {
			if _, ok := f.Translate(l); !ok {
				return fmt.Errorf("ftl: preconditioned LPN %d unmapped", l)
			}
		}
		return nil
	})
	return c, err
}

// samplerDraws is the draw count of one sampler timing.
const samplerDraws = 1 << 20

// timeSampler draws outcomes over TLC's three page types in turn; a
// lifetime sampler draws at a stress point inside its grid.
func timeSampler(tr *tracer, parent int, s ssdsim.RetrySampler) float64 {
	rng := mathx.NewRand(0x5a)
	sum := 0
	ns, _ := nsPer(tr, parent, "ssdsim.sampler_draw", samplerDraws, func() error {
		if ls, ok := s.(*ssdsim.LifetimeSampler); ok {
			st := physics.Stress{PECycles: wornPE, EffRetentionHours: wornHours + physics.YearHours/2}
			for i := 0; i < samplerDraws; i++ {
				sum += ls.SampleStressed(i%3, st, rng).Retries
			}
			return nil
		}
		for i := 0; i < samplerDraws; i++ {
			sum += s.Sample(i%3, rng).Retries
		}
		return nil
	})
	sink += sum
	return ns
}

// sink keeps timed loops from being optimized away.
var sink int

// timeLogHist times LogHist.Add over latency-shaped values and
// LogHist.Merge of two populated histograms.
func timeLogHist(tr *tracer, parent int) (addNS, mergeNS float64) {
	const adds, merges = 1 << 20, 1 << 11
	rng := mathx.NewRand(0x4157)
	vals := make([]float64, 1<<16)
	for i := range vals {
		vals[i] = 50 + 5000*rng.Float64()*rng.Float64()
	}
	var h mathx.LogHist
	addNS, _ = nsPer(tr, parent, "mathx.LogHist.Add", adds, func() error {
		for i := 0; i < adds; i++ {
			h.Add(vals[i&(len(vals)-1)])
		}
		return nil
	})
	mergeNS, _ = nsPer(tr, parent, "mathx.LogHist.Merge", merges, func() error {
		var acc mathx.LogHist
		for i := 0; i < merges; i++ {
			acc.Merge(&h)
		}
		sink += int(acc.Count() & 1)
		return nil
	})
	return addNS, mergeNS
}

// halfReplay replays the first half of the trace on a fresh engine and
// returns its simulated mean read latency.
func (w *replayWorkload) halfReplay(seed uint64, sampler ssdsim.RetrySampler) (float64, error) {
	ws, err := w.spec()
	if err != nil {
		return 0, err
	}
	eng, err := ssdsim.NewEngine(ssdsim.ReplayConfig{
		Sim: w.simConfig(seed), Devices: w.devices, ChunkRequests: chunkRequests, Precondition: true,
	}, sampler)
	if err != nil {
		return 0, err
	}
	rep, err := eng.Replay(trace.GeneratorOpener(ws, w.requests/2, traceSeed(seed)))
	if err != nil {
		return 0, err
	}
	return rep.MeanReadUS, nil
}

// counter reads a counter family from a snapshot (0 when absent).
func counter(s *obs.Snapshot, name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// hist reads a histogram family from a snapshot (empty when absent).
func hist(s *obs.Snapshot, name string) *mathx.LogHist {
	for _, h := range s.Hists {
		if h.Name == name {
			return h.Hist
		}
	}
	return &mathx.LogHist{}
}
