package sentinel

import (
	"testing"

	"sentinel3d/internal/flash"
)

func cfg16k() flash.Config {
	return flash.Config{
		Kind: flash.QLC, Layers: 8, WordlinesPerLayer: 2,
		CellsPerWordline: 16384, Seed: 3, CacheZ: true,
	}
}

// TestDefaultLayoutValid: the paper's 0.2% tail-OOB layout validates.
func TestDefaultLayoutValid(t *testing.T) {
	if err := (Layout{Ratio: 0.002, Placement: TailOOB}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLayoutCount(t *testing.T) {
	cfg := cfg16k()
	l := Layout{Ratio: 0.002, Placement: TailOOB}
	if n := l.Count(cfg); n != 33 {
		t.Fatalf("Count = %d, want 33 (0.2%% of 16384)", n)
	}
	// Tiny ratios still give at least 2 sentinels.
	l.Ratio = 1e-9
	if n := l.Count(cfg); n != 2 {
		t.Fatalf("minimum count = %d, want 2", n)
	}
}

func TestLayoutValidateErrors(t *testing.T) {
	if err := (Layout{Ratio: 0}).Validate(); err == nil {
		t.Fatal("accepted zero ratio")
	}
	if err := (Layout{Ratio: 0.2}).Validate(); err == nil {
		t.Fatal("accepted 20% ratio")
	}
	if err := (Layout{Ratio: 0.054, Placement: TailOOB}).Validate(); err != nil {
		t.Fatalf("rejected 5.4%% (needed by scaled Table I sweeps): %v", err)
	}
	// Sentinels must fit in the OOB for tail placement.
	if err := (Layout{Ratio: 0.04, Placement: TailOOB}).Validate(); err != nil {
		t.Fatalf("4%% should still fit in 11.9%% OOB: %v", err)
	}
}

// The largest valid ratio keeps tail sentinels inside the OOB area of
// every wordline width flash.New accepts, which is why Validate needs
// no chip configuration.
func TestMaxRatioFitsOOB(t *testing.T) {
	l := Layout{Ratio: 0.1, Placement: TailOOB}
	for cells := 64; cells <= 1<<18; cells++ {
		cfg := cfg16k()
		cfg.CellsPerWordline = cells
		if n, oob := l.Count(cfg), cfg.OOBCells(); n > oob {
			t.Fatalf("%d cells: %d sentinels exceed the %d OOB cells", cells, n, oob)
		}
	}
}

func TestTailIndicesInsideOOB(t *testing.T) {
	cfg := cfg16k()
	l := Layout{Ratio: 0.002, Placement: TailOOB}
	idx := l.Indices(cfg)
	if len(idx) != l.Count(cfg) {
		t.Fatalf("got %d indices", len(idx))
	}
	for i, x := range idx {
		if x < cfg.UserCells() || x >= cfg.CellsPerWordline {
			t.Fatalf("index %d outside the OOB region", x)
		}
		if i > 0 && x <= idx[i-1] {
			t.Fatal("indices not ascending")
		}
	}
}

func TestSpreadIndicesCoverWordline(t *testing.T) {
	cfg := cfg16k()
	l := Layout{Ratio: 0.002, Placement: Spread}
	idx := l.Indices(cfg)
	if idx[0] > cfg.CellsPerWordline/len(idx) {
		t.Fatal("spread does not start near the head")
	}
	if idx[len(idx)-1] < cfg.CellsPerWordline*9/10 {
		t.Fatal("spread does not reach the tail")
	}
	for i := 1; i < len(idx); i++ {
		if idx[i] <= idx[i-1] {
			t.Fatal("indices not strictly ascending")
		}
	}
}

func TestApplyPatternAlternates(t *testing.T) {
	cfg := cfg16k()
	l := Layout{Ratio: 0.002, Placement: TailOOB}
	idx := l.Indices(cfg)
	states := make([]uint8, cfg.CellsPerWordline)
	l.ApplyPattern(states, idx, 8)
	lo, hi := 0, 0
	for i, x := range idx {
		switch states[x] {
		case 7:
			lo++
			if PatternAbove(i) {
				t.Fatal("pattern parity mismatch (below)")
			}
		case 8:
			hi++
			if !PatternAbove(i) {
				t.Fatal("pattern parity mismatch (above)")
			}
		default:
			t.Fatalf("sentinel %d programmed to %d", i, states[x])
		}
	}
	if lo < hi-1 || hi < lo-1 {
		t.Fatalf("pattern not even: %d below, %d above", lo, hi)
	}
}

func TestPlacementString(t *testing.T) {
	if TailOOB.String() != "tail-oob" || Spread.String() != "spread" {
		t.Fatal("Placement.String wrong")
	}
	if Placement(9).String() == "" {
		t.Fatal("unknown placement should print")
	}
}
