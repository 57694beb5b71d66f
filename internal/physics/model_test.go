package physics

import (
	"math"
	"testing"
)

// envOf resolves the wordline environment through EnvInto.
func envOf(m *Model, layer int, globalWL uint64, st Stress) WLEnv {
	var env WLEnv
	m.EnvInto(&env, layer, globalWL, st)
	return env
}

func mustModel(t *testing.T, p Params, seed uint64) *Model {
	t.Helper()
	m, err := NewModel(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCentersOrderedAndSpaced(t *testing.T) {
	for _, p := range []Params{TLC(), QLC()} {
		m := mustModel(t, p, 1)
		for s := 1; s < p.States(); s++ {
			if m.Center(s) <= m.Center(s-1) {
				t.Fatalf("centers not increasing at s=%d", s)
			}
		}
		// Programmed states are evenly spaced by StateWidth.
		for s := 2; s < p.States(); s++ {
			if gap := m.Center(s) - m.Center(s-1); math.Abs(gap-p.StateWidth) > 1e-9 {
				t.Fatalf("gap at s=%d is %v, want %v", s, gap, p.StateWidth)
			}
		}
		// Erased state is well below state 1.
		if m.Center(1)-m.Center(0) < 2*p.StateWidth {
			t.Fatal("erased state too close to state 1")
		}
	}
}

func TestDefaultReadVoltagesOrdered(t *testing.T) {
	m := mustModel(t, QLC(), 1)
	for i := 1; i <= m.P.States()-1; i++ {
		v := m.DefaultReadVoltage(i)
		if v <= m.Center(i-1) || v >= m.Center(i) {
			t.Fatalf("V%d = %v not between centers %v and %v",
				i, v, m.Center(i-1), m.Center(i))
		}
		if i > 1 && v <= m.DefaultReadVoltage(i-1) {
			t.Fatalf("read voltages not increasing at V%d", i)
		}
	}
}

func TestDefaultMarginBelowMidpoint(t *testing.T) {
	m := mustModel(t, TLC(), 1)
	mid := (m.Center(3) + m.Center(4)) / 2
	if got := m.DefaultReadVoltage(4); math.Abs(got-(mid-m.P.DefaultMargin)) > 1e-9 {
		t.Fatalf("V4 = %v, want %v", got, mid-m.P.DefaultMargin)
	}
}

func TestShiftAmplitudeBehaviour(t *testing.T) {
	m := mustModel(t, QLC(), 1)
	if a := m.ShiftAmplitude(Stress{}); a != 0 {
		t.Fatalf("fresh shift amplitude = %v, want 0", a)
	}
	aRet := m.ShiftAmplitude(Stress{EffRetentionHours: 100})
	aRetMore := m.ShiftAmplitude(Stress{EffRetentionHours: 1000})
	if !(aRetMore > aRet && aRet > 0) {
		t.Fatalf("shift not increasing in retention: %v, %v", aRet, aRetMore)
	}
	aWorn := m.ShiftAmplitude(Stress{EffRetentionHours: 100, PECycles: 3000})
	if aWorn <= aRet {
		t.Fatalf("P/E wear did not accelerate shift: %v vs %v", aWorn, aRet)
	}
}

func TestSigmaWidenMonotone(t *testing.T) {
	m := mustModel(t, QLC(), 1)
	if w := m.SigmaWiden(Stress{}); math.Abs(w-1) > 1e-12 {
		t.Fatalf("fresh widen = %v", w)
	}
	w1 := m.SigmaWiden(Stress{PECycles: 1000})
	w2 := m.SigmaWiden(Stress{PECycles: 1000, EffRetentionHours: 8760})
	if !(w2 > w1 && w1 > 1) {
		t.Fatalf("widen not monotone: %v %v", w1, w2)
	}
}

func TestShiftWeightDecreasesWithState(t *testing.T) {
	m := mustModel(t, QLC(), 1)
	if m.shiftWeight(0) != 0 {
		t.Fatal("erased state should not shift")
	}
	for s := 2; s < m.P.States(); s++ {
		if m.shiftWeight(s) >= m.shiftWeight(s-1) {
			t.Fatalf("shift weight not decreasing at s=%d", s)
		}
	}
	if m.shiftWeight(m.P.States()-1) < m.P.ChargeFloor-1e-12 {
		t.Fatal("shift weight fell below charge floor")
	}
}

func TestVariationFieldsFrozenPerSeed(t *testing.T) {
	a := mustModel(t, QLC(), 42)
	b := mustModel(t, QLC(), 42)
	c := mustModel(t, QLC(), 43)
	if a.LayerShiftMult(7) != b.LayerShiftMult(7) {
		t.Fatal("layer field not deterministic")
	}
	different := false
	for l := 0; l < 16; l++ {
		if a.LayerShiftMult(l) != c.LayerShiftMult(l) {
			different = true
			break
		}
	}
	if !different {
		t.Fatal("different seeds produced identical layer fields")
	}
}

func TestVariationFieldsSpread(t *testing.T) {
	m := mustModel(t, QLC(), 9)
	var lo, hi float64 = 10, -10
	for l := 0; l < 64; l++ {
		v := m.LayerShiftMult(l)
		if v <= 0 {
			t.Fatalf("non-positive layer mult %v", v)
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi-lo < 0.2 {
		t.Fatalf("layer variation too small: [%v, %v]", lo, hi)
	}
}

func TestCellZStableAcrossReadsRedrawnOnReprogram(t *testing.T) {
	m := mustModel(t, QLC(), 5)
	if m.CellZ(3, 100, 1) != m.CellZ(3, 100, 1) {
		t.Fatal("CellZ not stable")
	}
	if m.CellZ(3, 100, 1) == m.CellZ(3, 100, 2) {
		t.Fatal("CellZ identical across program epochs")
	}
	if m.CellZ(3, 100, 1) == m.CellZ(3, 101, 1) {
		t.Fatal("CellZ identical across cells")
	}
}

func TestReadNoiseVariesPerRead(t *testing.T) {
	m := mustModel(t, QLC(), 5)
	if m.ReadNoise(1, 10) == m.ReadNoise(2, 10) {
		t.Fatal("read noise identical across reads")
	}
	p := QLC()
	p.ReadNoiseSigma = 0
	m2 := mustModel(t, p, 5)
	if m2.ReadNoise(1, 10) != 0 {
		t.Fatal("zero-sigma read noise should be 0")
	}
}

func TestEnvMeansShiftLeftUnderStress(t *testing.T) {
	m := mustModel(t, QLC(), 5)
	fresh := envOf(m, 10, 100, Stress{})
	aged := envOf(m, 10, 100, Stress{PECycles: 1000, EffRetentionHours: 8760})
	for s := 1; s < m.P.States(); s++ {
		if aged.Mean[s] >= fresh.Mean[s] {
			t.Fatalf("state %d did not shift left under stress", s)
		}
		if aged.Sigma[s] <= fresh.Sigma[s] {
			t.Fatalf("state %d sigma did not widen under stress", s)
		}
	}
	// Erased state does not leak.
	if math.Abs(aged.Mean[0]-fresh.Mean[0]) > 1e-9 {
		t.Fatal("erased state shifted under retention")
	}
}

func TestEnvShiftDecreasesWithStateIndex(t *testing.T) {
	// The magnitude of the retention shift must decrease with state index
	// (paper Fig. 6: lower read voltages have larger optimal offsets).
	m := mustModel(t, QLC(), 5)
	fresh := envOf(m, 10, 100, Stress{})
	aged := envOf(m, 10, 100, Stress{PECycles: 3000, EffRetentionHours: 8760})
	prev := math.Inf(1)
	for s := 1; s < m.P.States(); s++ {
		shift := fresh.Mean[s] - aged.Mean[s]
		if shift >= prev {
			t.Fatalf("shift magnitude not decreasing at state %d: %v >= %v",
				s, shift, prev)
		}
		prev = shift
	}
}

func TestCellVthDistribution(t *testing.T) {
	// Empirical mean and std of sampled Vth must match the environment.
	m := mustModel(t, QLC(), 5)
	st := Stress{PECycles: 1000, EffRetentionHours: 8760}
	env := envOf(m, 3, 77, st)
	const n = 20000
	s := 9
	var sum, sumSq float64
	for c := 0; c < n; c++ {
		v := m.CellVth(env, 77, c, n, s, 1, 0xabc)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	sd := math.Sqrt(sumSq/n - mean*mean)
	// Gradient averages out over positions; read noise adds in quadrature.
	wantSD := math.Sqrt(env.Sigma[s]*env.Sigma[s] +
		m.P.ReadNoiseSigma*m.P.ReadNoiseSigma +
		env.Gradient*env.Gradient/12)
	if math.Abs(mean-env.Mean[s]) > 4*wantSD/math.Sqrt(n)+1 {
		t.Fatalf("empirical mean %v, want %v", mean, env.Mean[s])
	}
	if math.Abs(sd-wantSD)/wantSD > 0.05 {
		t.Fatalf("empirical sd %v, want %v", sd, wantSD)
	}
}

func TestGradientZeroMeanAcrossWordlines(t *testing.T) {
	m := mustModel(t, QLC(), 5)
	var sum float64
	const n = 2000
	for wl := uint64(0); wl < n; wl++ {
		sum += m.WLGradient(wl)
	}
	if mean := sum / n; math.Abs(mean) > 0.3 {
		t.Fatalf("gradient mean %v not ~0", mean)
	}
}
