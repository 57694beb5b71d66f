package trace

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseMSRUnalignedSpansPages(t *testing.T) {
	// 4 KiB starting at offset 2048 touches two pages.
	req, ok, err := NewMSRSource(strings.NewReader("1,h,0,Read,2048,4096,1")).Next()
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if req.LPN != 0 || req.Pages != 2 {
		t.Fatalf("req = %+v, want LPN 0 spanning 2 pages", req)
	}
}

func TestMSRWorkloadsValid(t *testing.T) {
	ws := MSRWorkloads()
	if len(ws) != 8 {
		t.Fatalf("got %d workloads, want 8 (paper Fig. 14)", len(ws))
	}
	seen := map[string]bool{}
	for _, w := range ws {
		if err := w.Validate(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		if seen[w.Name] {
			t.Errorf("duplicate workload %s", w.Name)
		}
		seen[w.Name] = true
	}
	if _, err := WorkloadByName("hm_0"); err != nil {
		t.Fatal(err)
	}
	if _, err := WorkloadByName("nope"); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestValidateRejectsNonFinite(t *testing.T) {
	fields := []struct {
		name string
		set  func(*WorkloadSpec, float64)
	}{
		{"ReadFrac", func(w *WorkloadSpec, v float64) { w.ReadFrac = v }},
		{"MeanIATUS", func(w *WorkloadSpec, v float64) { w.MeanIATUS = v }},
		{"Burstiness", func(w *WorkloadSpec, v float64) { w.Burstiness = v }},
		{"ZipfS", func(w *WorkloadSpec, v float64) { w.ZipfS = v }},
		{"MeanPages", func(w *WorkloadSpec, v float64) { w.MeanPages = v }},
		{"SeqProb", func(w *WorkloadSpec, v float64) { w.SeqProb = v }},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			w, _ := WorkloadByName("hm_0")
			f.set(&w, v)
			if err := w.Validate(); err == nil {
				t.Errorf("%s = %v accepted", f.name, v)
			}
			if _, err := Generate(w, 10, 1); err == nil {
				t.Errorf("Generate with %s = %v accepted", f.name, v)
			}
		}
	}
}

func TestGenerateMatchesSpec(t *testing.T) {
	spec, _ := WorkloadByName("mds_0")
	reqs, err := Generate(spec, 20000, 1)
	if err != nil {
		t.Fatal(err)
	}
	reads, pages := 0, 0
	for _, r := range reqs {
		if r.Op == Read {
			reads++
		}
		pages += r.Pages
	}
	readFrac := float64(reads) / float64(len(reqs))
	avgPages := float64(pages) / float64(len(reqs))
	if math.Abs(readFrac-spec.ReadFrac) > 0.02 {
		t.Fatalf("read fraction %v, want ~%v", readFrac, spec.ReadFrac)
	}
	if math.Abs(avgPages-spec.MeanPages)/spec.MeanPages > 0.25 {
		t.Fatalf("mean size %v, want ~%v", avgPages, spec.MeanPages)
	}
	// Arrivals are sorted and positive.
	prev := -1.0
	for _, r := range reqs {
		if r.ArriveUS < prev {
			t.Fatal("arrivals not monotone")
		}
		prev = r.ArriveUS
		if r.LPN < 0 || r.LPN+int64(r.Pages) > spec.WorkingSetPages {
			t.Fatalf("request outside working set: %+v", r)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec, _ := WorkloadByName("hm_0")
	a, _ := Generate(spec, 1000, 7)
	b, _ := Generate(spec, 1000, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different traces")
		}
	}
	c, _ := Generate(spec, 1000, 8)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestGenerateValidation(t *testing.T) {
	spec, _ := WorkloadByName("hm_0")
	if _, err := Generate(spec, 0, 1); err == nil {
		t.Fatal("accepted zero requests")
	}
	bad := spec
	bad.ReadFrac = 2
	if _, err := Generate(bad, 10, 1); err == nil {
		t.Fatal("accepted bad read fraction")
	}
}

func TestZipfSkewConcentratesAccesses(t *testing.T) {
	// Higher skew should concentrate more traffic on fewer pages.
	conc := func(s float64) float64 {
		spec := WorkloadSpec{
			Name: "x", ReadFrac: 0.5, MeanIATUS: 100, WorkingSetPages: 1 << 16,
			ZipfS: s, MeanPages: 1, SeqProb: 0,
		}
		reqs, err := Generate(spec, 20000, 3)
		if err != nil {
			t.Fatal(err)
		}
		counts := map[int64]int{}
		for _, r := range reqs {
			counts[r.LPN]++
		}
		// Fraction of accesses on the hottest 1% of touched pages.
		var all []int
		for _, c := range counts {
			all = append(all, c)
		}
		top := 0
		total := 0
		// partial selection: simple max-extract for the top 1%.
		k := len(all)/100 + 1
		for i := 0; i < k; i++ {
			best := -1
			for j, c := range all {
				if best < 0 || c > all[best] {
					best = j
				}
				_ = c
			}
			top += all[best]
			all[best] = -1
		}
		for _, r := range reqs {
			_ = r
			total++
		}
		return float64(top) / float64(total)
	}
	if conc(1.1) <= conc(0.2)+0.05 {
		t.Fatal("higher Zipf skew did not concentrate accesses")
	}
}

func TestOpString(t *testing.T) {
	if Read.String() != "R" || Write.String() != "W" {
		t.Fatal("Op.String wrong")
	}
}

func TestGeneratePagesBounded(t *testing.T) {
	f := func(seed uint16) bool {
		spec, _ := WorkloadByName("proj_0")
		reqs, err := Generate(spec, 200, uint64(seed))
		if err != nil {
			return false
		}
		for _, r := range reqs {
			if r.Pages < 1 || r.Pages > 64 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
