package ftl

import (
	"testing"

	"sentinel3d/internal/trace"
)

// replayGeometry is the 4-channel device the scenario layer, tracesim
// and the replay benchmarks replay against.
var replayGeometry = Geometry{
	Channels: 4, ChipsPerChan: 1, DiesPerChip: 2, PlanesPerDie: 2,
	BlocksPerPlane: 32, PagesPerBlock: 192,
}

// BenchmarkFTLOverwrite overwrites the prxy_0 footprint (60% of one
// replay device, Zipf-skewed) striped over 8 preconditioned FTLs in
// 64-page granules, the shape of the 8-device write-heavy replay: the
// overwrite's invalidate, the allocation and the GC it triggers, with
// the eight FTLs' page metadata competing for cache. One op is one page
// write.
func BenchmarkFTLOverwrite(b *testing.B) {
	const devices, granule = 8, 64
	spec, err := trace.WorkloadByName("prxy_0")
	if err != nil {
		b.Fatal(err)
	}
	spec.WorkingSetPages = int64(replayGeometry.PagesTotal()) * 6 / 10
	g, err := trace.NewGenerator(spec, 1<<17, 1)
	if err != nil {
		b.Fatal(err)
	}
	type write struct {
		dev int
		lpn int64
	}
	var writes []write
	blk := make([]trace.Request, 512)
	for k := g.NextSpans(blk); k > 0; k = g.NextSpans(blk) {
		for _, r := range blk[:k] {
			for p := r.LPN; p < r.LPN+int64(r.Pages); p++ {
				gr := p / granule
				writes = append(writes, write{int(gr % devices), gr/devices*granule + p%granule})
			}
		}
	}
	ftls := make([]*FTL, devices)
	bound := (spec.WorkingSetPages/granule/devices + 1) * granule
	var res WriteResult
	for d := range ftls {
		if ftls[d], err = New(replayGeometry); err != nil {
			b.Fatal(err)
		}
		ftls[d].SetLPNBound(bound)
		for lpn := int64(0); lpn <= bound; lpn++ {
			if err := ftls[d].WriteInto(lpn, &res); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := writes[i%len(writes)]
		if err := ftls[w.dev].WriteInto(w.lpn, &res); err != nil {
			b.Fatal(err)
		}
	}
}
