package retry

import (
	"errors"
	"testing"

	"sentinel3d/internal/ecc"
	"sentinel3d/internal/flash"
	"sentinel3d/internal/mathx"
	"sentinel3d/internal/obs"
)

func latencyHist(t *testing.T, reg *obs.Registry) *mathx.LogHist {
	t.Helper()
	for _, h := range reg.Snapshot().Hists {
		if h.Name == "retry.latency_us" {
			return h.Hist
		}
	}
	t.Fatal("retry.latency_us not in snapshot")
	return nil
}

func TestMetricsRecord(t *testing.T) {
	reg := obs.NewRegistry(1)
	m := NewMetrics(reg.Set(0), 2)
	sv := 4

	ofs := flash.ZeroOffsets(7)
	ofs[sv-1] = -6.2 // |−6.2|/2 rounds to 3 table entries
	m.record(&Result{
		OK: true, Retries: 1, AuxSenses: 2, Latency: 80, FinalOffsets: ofs,
	}, sv)
	m.record(&Result{
		Retries: 15, AuxSenses: 1, Latency: 900, FinalOffsets: ofs,
		UsedFallback: true, Uncorrectable: true,
	}, sv)
	m.record(&Result{Err: errors.New("bad address")}, sv)
	m.lsbReuse()

	checks := []struct {
		name string
		c    *obs.Counter
		want int64
	}{
		{"reads", m.Reads, 2},
		{"retries", m.Retries, 16},
		{"shaved", m.ShavedRetries, 2}, // 3 entries − 1 retry spent
		{"aux", m.AuxSenses, 3},
		{"lsb reuses", m.LSBReuses, 1},
		{"fallbacks", m.Fallbacks, 1},
		{"uncorrectable", m.Uncorrectable, 1},
	}
	for _, c := range checks {
		if got := c.c.Value(); got != c.want {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
	h := latencyHist(t, reg)
	if h.Count() != 2 || h.Max() < 900 {
		t.Fatalf("latency hist count=%d max=%v, want 2 observations up to 900",
			h.Count(), h.Max())
	}

	// A failed read whose offsets happen to be large must not count as
	// shaved: the policy did not deliver.
	m.record(&Result{Retries: 15, FinalOffsets: ofs, Uncorrectable: true}, sv)
	if got := m.ShavedRetries.Value(); got != 2 {
		t.Fatalf("uncorrectable read changed shaved count to %d", got)
	}

	// Nil metrics: every hook is a no-op.
	var nilM *Metrics
	nilM.record(&Result{OK: true, FinalOffsets: ofs}, sv)
	nilM.lsbReuse()
}

func TestMetricsOnInstrumentedReads(t *testing.T) {
	eng := testEngine(t)
	chip := agedTLCChip(t, eng)
	ctl, err := NewController(chip, ecc.CapabilityModel{FrameBits: 8192, T: 28}, 15)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry(1)
	table := NewDefaultTable(chip, 2)
	ctl.Obs = NewMetrics(reg.Set(0), table.Step)
	sent := NewSentinelPolicy(eng)

	var reads, retries, aux, lsbRetried int64
	for wl := 0; wl < chip.Config().WordlinesPerBlock(); wl++ {
		for p := 0; p < 3; p++ {
			res := ctl.Read(0, wl, p, sent, mathx.Mix(11, uint64(wl*4+p)))
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			reads++
			retries += int64(res.Retries)
			aux += int64(res.AuxSenses)
			if p == flash.PageLSB && res.Retries > 0 {
				lsbRetried++
			}
		}
	}
	if got := ctl.Obs.Reads.Value(); got != reads {
		t.Fatalf("reads counter %d, want %d", got, reads)
	}
	if got := ctl.Obs.Retries.Value(); got != retries {
		t.Fatalf("retries counter %d, want %d", got, retries)
	}
	if got := ctl.Obs.AuxSenses.Value(); got != aux {
		t.Fatalf("aux counter %d, want %d", got, aux)
	}
	if h := latencyHist(t, reg); h.Count() != reads {
		t.Fatalf("latency hist holds %d reads, want %d", h.Count(), reads)
	}
	// On a retention-aged block the sentinel policy must shave table
	// retries; zero would mean the hook is dead.
	if ctl.Obs.ShavedRetries.Value() == 0 {
		t.Fatal("no shaved retries recorded on an aged block")
	}
	// Every retried LSB read serves its sentinel sense from the failed
	// readout, so reuses must cover at least those reads.
	if got := ctl.Obs.LSBReuses.Value(); got < lsbRetried {
		t.Fatalf("LSB reuses %d < %d retried LSB reads", got, lsbRetried)
	}

	// An out-of-range read reports Err and must leave the counters alone.
	before := ctl.Obs.Reads.Value()
	if res := ctl.Read(99, 0, 0, sent, 1); res.Err == nil {
		t.Fatal("bad address not reported")
	}
	if got := ctl.Obs.Reads.Value(); got != before {
		t.Fatalf("failed-to-attempt read bumped reads to %d", got)
	}
}

func TestMetricsRecordAllocations(t *testing.T) {
	reg := obs.NewRegistry(1)
	m := NewMetrics(reg.Set(0), 2)
	ofs := flash.ZeroOffsets(7)
	ofs[3] = -5
	res := &Result{OK: true, Retries: 1, AuxSenses: 1, Latency: 70, FinalOffsets: ofs}
	if n := testing.AllocsPerRun(200, func() { m.record(res, 4) }); n != 0 {
		t.Fatalf("enabled record allocates %v/op", n)
	}
	var nilM *Metrics
	if n := testing.AllocsPerRun(200, func() { nilM.record(res, 4) }); n != 0 {
		t.Fatalf("nil record allocates %v/op", n)
	}
}
