package experiments

import "testing"

func TestTempBandsImproveHotInference(t *testing.T) {
	r, err := TempBandExperiment(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if r.BandTableErr <= 0 || r.RoomTableErr <= 0 {
		t.Fatalf("degenerate errors: %+v", r)
	}
	// The hot band's table must beat the room table when reading hot —
	// the reason Section III-D keeps one table per temperature range.
	if r.BandTableErr >= r.RoomTableErr {
		t.Fatalf("banded table (%.2f) not better than room table (%.2f) at %v C",
			r.BandTableErr, r.RoomTableErr, r.ReadTempC)
	}
	res := r.Result()
	if h := headline(t, res, "room-temperature table mean per-voltage error"); h.Value != r.RoomTableErr {
		t.Errorf("room headline %v, want %v", h.Value, r.RoomTableErr)
	}
	if h := headline(t, res, "hot-band table mean per-voltage error"); h.Value != r.BandTableErr {
		t.Errorf("hot-band headline %v, want %v", h.Value, r.BandTableErr)
	}
}
