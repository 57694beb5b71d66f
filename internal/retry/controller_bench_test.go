package retry

import (
	"testing"

	"sentinel3d/internal/ecc"
)

// BenchmarkControllerRead measures one serviced page read on the aged
// Figure 13 chip (16k-cell TLC wordlines, P/E 5000, one year): every
// attempt and auxiliary sense is a chip read of the same wordline. The
// table policy walks its retry table; the sentinel policy adds its
// auxiliary senses. Setup (training, programming) is outside the timer.
func BenchmarkControllerRead(b *testing.B) {
	eng := testEngine(b)
	chip := agedTLCChip(b, eng)
	ctl, err := NewController(chip, ecc.CapabilityModel{FrameBits: 8192, T: 28}, 15)
	if err != nil {
		b.Fatal(err)
	}
	nwl := chip.Config().WordlinesPerBlock()
	for _, pc := range []struct {
		name string
		pol  Policy
	}{
		{"table", NewDefaultTable(chip, 2)},
		{"sentinel", NewSentinelPolicy(eng)},
	} {
		b.Run(pc.name, func(b *testing.B) {
			b.ReportAllocs()
			retries := 0
			for i := 0; i < b.N; i++ {
				res := ctl.Read(0, i%nwl, 2, pc.pol, uint64(i))
				retries += res.Retries
			}
			b.ReportMetric(float64(retries)/float64(b.N), "retries/op")
		})
	}
}
