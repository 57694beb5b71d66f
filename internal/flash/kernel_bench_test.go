package flash

import (
	"testing"

	"sentinel3d/internal/mathx"
	"sentinel3d/internal/physics"
)

// benchChip returns a programmed paper-geometry TLC chip shared by the
// kernel benchmarks. The wordline is programmed once; every benchmark
// below is read-only.
func benchChip(b *testing.B) *Chip {
	cfg := DefaultConfig(TLC)
	cfg.WordlinesPerLayer = 1 // one wordline per layer is plenty for reads
	chip := MustNew(cfg)
	chip.ProgramRandom(0, mathx.NewRand(42))
	return chip
}

func benchGrid() []float64 {
	var offs []float64
	for o := -60.0; o <= 30.0+1e-9; o++ {
		offs = append(offs, o)
	}
	return offs
}

func BenchmarkSense(b *testing.B) {
	chip := benchChip(b)
	sv := chip.Coding().SentinelVoltage()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PutBitmap(chip.Sense(0, sv, 0, uint64(i)))
	}
}

func BenchmarkReadPage(b *testing.B) {
	chip := benchChip(b)
	msb := chip.Coding().Bits() - 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PutBitmap(chip.ReadPage(0, msb, nil, uint64(i)))
	}
}

// BenchmarkReadOpReuse measures the marginal cost of extra queries on an
// open ReadOp — the fused-kernel win: the threshold-voltage vector is
// materialized once, outside the loop.
func BenchmarkReadOpReuse(b *testing.B) {
	chip := benchChip(b)
	sv := chip.Coding().SentinelVoltage()
	msb := chip.Coding().Bits() - 1
	op := chip.BeginRead(0, 1)
	defer op.Close()
	var sense, page Bitmap
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sense = op.SenseInto(sense, sv, 0)
		page = op.ReadPageInto(page, msb, nil)
	}
}

func BenchmarkSweepAllVoltages(b *testing.B) {
	chip := benchChip(b)
	offs := benchGrid()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chip.SweepAllVoltages(0, offs, uint64(i))
	}
}

// BenchmarkSweepAllVoltagesQuick sweeps a quick-scale (16384-cell)
// wordline on the lazy-noise path, fresh and at the paper's worn point
// (5000 P/E, one year), for TLC and QLC: the shape of every sweep the
// sentinel trainer runs at quick scale.
func BenchmarkSweepAllVoltagesQuick(b *testing.B) {
	for _, kind := range []Kind{TLC, QLC} {
		for _, aged := range []bool{false, true} {
			name := kind.String() + "/fresh"
			if aged {
				name = kind.String() + "/aged"
			}
			b.Run(name, func(b *testing.B) {
				cfg := DefaultConfig(kind)
				cfg.Layers, cfg.WordlinesPerLayer, cfg.CellsPerWordline = 1, 1, 16384
				chip := MustNew(cfg)
				chip.ProgramRandom(0, mathx.NewRand(42))
				if aged {
					chip.Cycle(5000)
					chip.Age(physics.YearHours, physics.RoomTempC)
				}
				offs := benchGrid()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					chip.SweepAllVoltages(0, offs, uint64(i))
				}
			})
		}
	}
}
