package experiments

import "testing"

// TestCorruptionSweepGraceful is the acceptance gate for the degradation
// ladder: at every corruption rate the fallback policy must do no worse
// than the static vendor table (mean retries and failures), while the bare
// sentinel policy measurably degrades as the corruption grows.
func TestCorruptionSweepGraceful(t *testing.T) {
	r, err := CorruptionSweep(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("sweep produced %d rows, want 6", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.FallbackRetries > row.TableRetries {
			t.Errorf("rate %.0f%%: fallback mean retries %.3f exceed table %.3f",
				row.Rate*100, row.FallbackRetries, row.TableRetries)
		}
		if row.FallbackFails > row.TableFails {
			t.Errorf("rate %.0f%%: fallback fails %d exceed table %d",
				row.Rate*100, row.FallbackFails, row.TableFails)
		}
	}
	clean, worst := r.Rows[0], r.Rows[len(r.Rows)-1]
	if clean.BlockDegraded {
		t.Error("probe degraded a healthy block")
	}
	if clean.FallbackRetries >= clean.TableRetries {
		t.Errorf("healthy block: fallback %.3f not better than table %.3f",
			clean.FallbackRetries, clean.TableRetries)
	}
	if !worst.BlockDegraded {
		t.Error("probe did not trip at 10% corruption")
	}
	// Every nonzero rate must cost the bare policy extra retries, and the
	// worst rate measurably so.
	for _, row := range r.Rows[1:] {
		if row.BareRetries <= clean.BareRetries {
			t.Errorf("rate %.0f%%: bare sentinel did not degrade (%.3f vs %.3f clean)",
				row.Rate*100, row.BareRetries, clean.BareRetries)
		}
	}
	if worst.BareRetries < 1.05*clean.BareRetries {
		t.Errorf("bare sentinel degradation at 10%% not measurable: %.3f vs %.3f clean",
			worst.BareRetries, clean.BareRetries)
	}
	// The ladder must be graduated: some nonzero rate is absorbed by the
	// clamp+calibration (block stays on sentinel inference and beats the
	// table), rather than the probe tripping at the first corrupted cell.
	graduated := false
	for _, row := range r.Rows[1:] {
		if !row.BlockDegraded && row.FallbackRetries < row.TableRetries {
			graduated = true
		}
	}
	if !graduated {
		t.Error("probe tripped at every nonzero rate: degradation is a cliff, not a ladder")
	}
}

// TestFaultedWorkerCountDeterminism extends the worker-count regression to
// a faulted run: seed-keyed fault decisions plus the coordinator-side block
// probe must keep the rendered sweep byte-identical at any worker count.
func TestFaultedWorkerCountDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full sweep twice")
	}
	run := func() (string, error) {
		r, err := CorruptionSweep(Quick())
		if err != nil {
			return "", err
		}
		return r.Result().Text(), nil
	}
	var serial, fanned string
	var err1, err2 error
	withWorkers(1, func() { serial, err1 = run() })
	if err1 != nil {
		t.Fatal(err1)
	}
	withWorkers(8, func() { fanned, err2 = run() })
	if err2 != nil {
		t.Fatal(err2)
	}
	if serial != fanned {
		t.Errorf("faulted sweep differs between workers=1 and workers=8:\n"+
			"--- workers=1 ---\n%s\n--- workers=8 ---\n%s", serial, fanned)
	}
}
