package trace

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sentinel3d/internal/mathx"
)

func TestSlicedRoundTrip(t *testing.T) {
	reqs := []Request{
		{ArriveUS: 1, Op: Read, LPN: 10, Pages: 2},
		{ArriveUS: 2, Op: Write, LPN: 20, Pages: 1},
	}
	got, err := Collect(Sliced(reqs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(reqs) {
		t.Fatalf("collected %d requests", len(got))
	}
	for i := range reqs {
		if got[i] != reqs[i] {
			t.Fatalf("request %d = %+v, want %+v", i, got[i], reqs[i])
		}
	}
	// A drained source stays drained.
	src := Sliced(reqs)
	for i := 0; i < len(reqs); i++ {
		if _, ok, _ := src.Next(); !ok {
			t.Fatal("source exhausted early")
		}
	}
	if _, ok, _ := src.Next(); ok {
		t.Fatal("source yielded past the end")
	}
	if _, ok, _ := src.Next(); ok {
		t.Fatal("drained source revived")
	}
}

// TestGeneratorMatchesGenerate pins the streaming generator to the
// materializing one: same spec, count and seed must give a byte-identical
// stream, because the engine's two passes rely on regenerating it.
func TestGeneratorMatchesGenerate(t *testing.T) {
	for _, spec := range MSRWorkloads() {
		want, err := Generate(spec, 500, 42)
		if err != nil {
			t.Fatal(err)
		}
		g, err := NewGenerator(spec, 500, 42)
		if err != nil {
			t.Fatal(err)
		}
		if g.Len() != 500 {
			t.Fatalf("Len = %d", g.Len())
		}
		got, err := Collect(g)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d streamed vs %d generated", spec.Name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: request %d differs: %+v vs %+v",
					spec.Name, i, got[i], want[i])
			}
		}
	}
}

// TestGeneratorStreamDigest pins every built-in workload's stream at
// seed 1: the FNV-64a of the first 200k requests' (ArriveUS bits, Op,
// LPN, Pages) must equal the constant recorded for it. The specs cover
// Zipf skew below 1, exactly 1 (wdev_0) and above 1 (prxy_0), so any
// change to the arrival, size or address arithmetic shows here, not
// first in a replay digest.
func TestGeneratorStreamDigest(t *testing.T) {
	want := map[string]uint64{
		"hm_0":    0x87cd64638e8e270d,
		"mds_0":   0xb0119a646d911d8f,
		"prn_0":   0xa2a35fd1b33d6e8c,
		"proj_0":  0x418012fcce1aa0c7,
		"prxy_0":  0xa954236597729ed1,
		"rsrch_0": 0x24ea7da61a670c1a,
		"src2_0":  0x800752fd467d2720,
		"wdev_0":  0x6f3d264c0292509e,
	}
	for _, spec := range MSRWorkloads() {
		g, err := NewGenerator(spec, 200000, 1)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var rec [21]byte
		for {
			r, ok, err := g.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			binary.LittleEndian.PutUint64(rec[0:8], math.Float64bits(r.ArriveUS))
			rec[8] = byte(r.Op)
			binary.LittleEndian.PutUint64(rec[9:17], uint64(r.LPN))
			binary.LittleEndian.PutUint32(rec[17:21], uint32(r.Pages))
			h.Write(rec[:])
		}
		if got := h.Sum64(); got != want[spec.Name] {
			t.Errorf("%s: stream digest %#016x, want %#016x", spec.Name, got, want[spec.Name])
		}
	}
}

// TestGeneratorNextSpanMatchesNext interleaves Next and one-request
// NextSpans calls on every built-in spec, plus an uncertified
// power-branch spec and an s = 1 (zipfLog) spec at the scenario
// footprint. Each span must be the one Next would have returned, and
// every Next after it the same op and span as the pure Next stream: a
// span draw consumes exactly the draws Next does. Arrival times match
// exactly until the first span draw, which leaves the clock where it
// was; after it they only stay non-decreasing.
func TestGeneratorNextSpanMatchesNext(t *testing.T) {
	specs := MSRWorkloads()
	pow, _ := WorkloadByName("hm_0")
	pow.Name, pow.ZipfS, pow.WorkingSetPages = "pow", 0.6, scenarioPages
	log1, _ := WorkloadByName("mds_0")
	log1.Name, log1.ZipfS, log1.WorkingSetPages = "log", 1, scenarioPages
	if z := newZipf(pow.WorkingSetPages, pow.ZipfS); z.kind != zipfPower || z.k != -1 {
		t.Fatalf("pow spec: kind %d k %d, want the uncertified power branch", z.kind, z.k)
	}
	if z := newZipf(log1.WorkingSetPages, log1.ZipfS); z.kind != zipfLog {
		t.Fatalf("log spec: kind %d, want zipfLog", z.kind)
	}
	specs = append(specs, pow, log1)
	const n, exact = 20000, 100
	for _, spec := range specs {
		want, err := Generate(spec, n, 3)
		if err != nil {
			t.Fatal(err)
		}
		g, err := NewGenerator(spec, n, 3)
		if err != nil {
			t.Fatal(err)
		}
		prev := 0.0
		var one [1]Request
		for i, w := range want {
			// Runs of both calls, switching on a hash of the index.
			if i >= exact && mathx.Hash64(uint64(i)/4)&1 == 1 {
				k := g.NextSpans(one[:])
				if k != 1 || one[0].LPN != w.LPN || one[0].Pages != w.Pages {
					t.Fatalf("%s: NextSpans %d = %d (%d, %d), want 1 (%d, %d)",
						spec.Name, i, k, one[0].LPN, one[0].Pages, w.LPN, w.Pages)
				}
				continue
			}
			r, ok, err := g.Next()
			if err != nil || !ok {
				t.Fatalf("%s: Next %d = (%v, %v)", spec.Name, i, ok, err)
			}
			if r.Op != w.Op || r.LPN != w.LPN || r.Pages != w.Pages {
				t.Fatalf("%s: Next %d = %+v, want %+v", spec.Name, i, r, w)
			}
			if i < exact && r.ArriveUS != w.ArriveUS || r.ArriveUS < prev {
				t.Fatalf("%s: Next %d arrives at %v (previous %v), want %v",
					spec.Name, i, r.ArriveUS, prev, w.ArriveUS)
			}
			prev = r.ArriveUS
		}
		if k := g.NextSpans(one[:]); k != 0 {
			t.Fatalf("%s: NextSpans past the end yielded %d", spec.Name, k)
		}
		if _, ok, _ := g.Next(); ok {
			t.Fatalf("%s: Next past the end", spec.Name)
		}
	}
}

func TestGeneratorValidation(t *testing.T) {
	spec, _ := WorkloadByName("hm_0")
	if _, err := NewGenerator(spec, 0, 1); err == nil {
		t.Fatal("accepted zero requests")
	}
	bad := spec
	bad.ReadFrac = 2
	if _, err := NewGenerator(bad, 10, 1); err == nil {
		t.Fatal("accepted bad read fraction")
	}
}

const msrSample = `128166372003061629,hm,0,Read,8192,4096,100
128166372013061629,hm,0,Write,4096,8192,100
# comment

128166372023061629,hm,0,Read,0,512,100
`

// msrMessy exercises every parser edge in one fixture: comments, blank
// lines, CRLF endings, a size-0 record (still one page), and surplus
// whitespace. Timestamps are in order, so no arrival is clamped.
const msrMessy = "# MSR header comment\r\n" +
	"128166372003061629,hm,0,Read,8192,4096,100\r\n" +
	"\r\n" +
	"128166372013061629,hm,0,Write,4096,8192,100\n" +
	"   \n" +
	"128166372023061629,hm,0,Read,12288,0,100\r\n" + // size 0 -> 1 page
	"128166372033061629,hm,0,read,0,512,100\n" // case-insensitive op

// TestMSRSourceGoldenMessy pins MSRSource's stream over the messy
// fixture to golden values.
func TestMSRSourceGoldenMessy(t *testing.T) {
	want := []Request{
		{ArriveUS: 0, Op: Read, LPN: 2, Pages: 1},
		{ArriveUS: 1e6, Op: Write, LPN: 1, Pages: 2},
		{ArriveUS: 2e6, Op: Read, LPN: 3, Pages: 1},
		{ArriveUS: 3e6, Op: Read, LPN: 0, Pages: 1},
	}
	src := NewMSRSource(strings.NewReader(msrMessy))
	streamed, err := Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(want) {
		t.Fatalf("streamed %d, want %d", len(streamed), len(want))
	}
	for i := range want {
		if streamed[i] != want[i] {
			t.Errorf("streamed[%d] = %+v, want %+v", i, streamed[i], want[i])
		}
	}
	if src.Reordered() != 0 {
		t.Errorf("in-order fixture counted %d reordered records", src.Reordered())
	}
}

// msrOutOfOrder: the file's first line is not its earliest record, and
// a later record also steps backwards. Pre-fix, the streaming path
// rebased against the first line and emitted negative, time-travelling
// arrivals (-1e6µs here) straight into the simulator.
const msrOutOfOrder = `128166372013061629,hm,0,Read,8192,4096,100
128166372003061629,hm,0,Write,4096,8192,100
128166372023061629,hm,0,Read,12288,4096,100
128166372022061629,hm,0,Read,16384,4096,100
`

// TestMSRSourceOutOfOrder is the regression test for the streaming
// rebase bug: arrivals must be clamped to the running maximum (never
// negative, never decreasing) and the clamped records counted.
func TestMSRSourceOutOfOrder(t *testing.T) {
	src := NewMSRSource(strings.NewReader(msrOutOfOrder))
	got, err := Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	wantUS := []float64{0, 0, 1e6, 1e6}
	if len(got) != len(wantUS) {
		t.Fatalf("streamed %d requests", len(got))
	}
	last := 0.0
	for i, r := range got {
		if r.ArriveUS != wantUS[i] {
			t.Errorf("request %d arrives at %v, want %v", i, r.ArriveUS, wantUS[i])
		}
		if r.ArriveUS < last {
			t.Errorf("request %d travels back in time: %v after %v", i, r.ArriveUS, last)
		}
		last = r.ArriveUS
	}
	if src.Reordered() != 2 {
		t.Errorf("Reordered() = %d, want 2", src.Reordered())
	}

}

// FuzzParseMSRLine: no input may crash the line parser, and every
// accepted line must yield an in-range request (positive page count,
// LPN consistent with the offset) and re-parse identically.
func FuzzParseMSRLine(f *testing.F) {
	f.Add("128166372003061629,hm,0,Read,8192,4096,100")
	f.Add("1,h,0,write,0,0,1")
	f.Add("1,h,0,Read,-4096,512,1")
	f.Add("9223372036854775807,h,0,Read,9223372036854775807,9223372036854775807,1")
	f.Add(",,,,,,")
	f.Add("1,h,0,Read,0x10,4096,1")
	f.Fuzz(func(t *testing.T, line string) {
		req, ts, err := parseMSRBytes([]byte(line), 1)
		if err != nil {
			return
		}
		if req.Pages < 1 {
			t.Fatalf("accepted line %q with %d pages", line, req.Pages)
		}
		if req.Op != Read && req.Op != Write {
			t.Fatalf("accepted line %q with op %v", line, req.Op)
		}
		req2, ts2, err2 := parseMSRBytes([]byte(line), 1)
		if err2 != nil || req2 != req || ts2 != ts {
			t.Fatalf("re-parse of %q diverged: %+v/%v vs %+v/%v (%v)",
				line, req, ts, req2, ts2, err2)
		}
	})
}

func TestMSRSourceErrors(t *testing.T) {
	cases := []string{
		"notanumber,h,0,Read,0,4096,1",
		"1,h,0,Flush,0,4096,1",
		"1,h,0,Read,zero,4096,1",
		"1,h,0,Read,0,big,1",
		"1,h,0",
	}
	for _, c := range cases {
		src := NewMSRSource(strings.NewReader("# ok\n" + c))
		_, _, err := src.Next()
		if err == nil {
			t.Errorf("accepted %q", c)
			continue
		}
		if !strings.Contains(err.Error(), "line 2") {
			t.Errorf("error for %q lacks line number: %v", c, err)
		}
		// The error is sticky: a dead source never yields again.
		if _, ok, err2 := src.Next(); ok || err2 == nil {
			t.Errorf("dead source revived after %q", c)
		}
	}
}

func TestOpenMSR(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.csv")
	if err := os.WriteFile(path, []byte(msrSample), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := OpenMSR(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("collected %d requests", len(got))
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	if err := src.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := OpenMSR(filepath.Join(t.TempDir(), "missing.csv")); err == nil {
		t.Fatal("opened missing file")
	}
}
