package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// span is one timed interval recorded by the benchmark around a call
// into a layer. Times are microseconds since the tracer started.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	Req    int64   `json:"req,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() float64 { return float64(time.Since(t.t0).Nanoseconds()) / 1e3 }

// begin opens a span under parent (0 = root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: start})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// add records an already-measured interval.
func (t *tracer) add(name string, parent int, start, end time.Time, req int64) {
	if t == nil {
		return
	}
	s := float64(start.Sub(t.t0).Nanoseconds()) / 1e3
	e := float64(end.Sub(t.t0).Nanoseconds()) / 1e3
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: s, End: e, Req: req})
	t.mu.Unlock()
}

// timeChild runs fn as span name under parent and adds the CPU
// seconds it took to times[name].
func timeChild(tr *tracer, parent int, times map[string]float64, name string, fn func() error) error {
	id := tr.begin(name, parent)
	c0 := cpuSeconds()
	err := fn()
	times[name] += cpuSeconds() - c0
	tr.end(id)
	return err
}

// total sums the durations of every span called name, in seconds.
func (t *tracer) total(name string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var us float64
	for _, s := range t.spans {
		if s.Name == name {
			us += s.End - s.Start
		}
	}
	return us / 1e6
}

// selfRow is one span name's aggregate in the self-time table.
type selfRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalS  float64 `json:"total_s"`
	SelfS   float64 `json:"self_s"`
	SelfPct float64 `json:"self_pct"`
}

// selfTimes aggregates spans by name. A span's self time is its
// duration minus the union of its children's intervals (children may
// overlap, as concurrent serve requests do).
func (t *tracer) selfTimes() []selfRow {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	rows := map[string]*selfRow{}
	var selfTotal float64
	for _, s := range t.spans {
		dur := s.End - s.Start
		self := dur - coveredUS(kids[s.ID], s.Start, s.End)
		selfTotal += self
		r := rows[s.Name]
		if r == nil {
			r = &selfRow{Name: s.Name}
			rows[s.Name] = r
		}
		r.Count++
		r.TotalS += dur / 1e6
		r.SelfS += self / 1e6
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		if selfTotal > 0 {
			r.SelfPct = 100 * r.SelfS * 1e6 / selfTotal
		}
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfS > out[j].SelfS })
	return out
}

// coveredUS is the length of the union of the spans' intervals clipped
// to [lo, hi].
func coveredUS(spans []span, lo, hi float64) float64 {
	if len(spans) == 0 {
		return 0
	}
	iv := make([][2]float64, 0, len(spans))
	for _, s := range spans {
		a, b := math.Max(s.Start, lo), math.Min(s.End, hi)
		if b > a {
			iv = append(iv, [2]float64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB float64
	for i, v := range iv {
		if i == 0 || v[0] > curB {
			total += curB - curA
			curA, curB = v[0], v[1]
		} else if v[1] > curB {
			curB = v[1]
		}
	}
	return total + curB - curA
}

// writeLedger writes the spans, the per-layer metrics and the self-time
// table: JSON to jsonPath and the table to tablePath and w.
func (t *tracer) writeLedger(w io.Writer, jsonPath, tablePath string, layers map[string]float64) error {
	rows := t.selfTimes()
	var b strings.Builder
	fmt.Fprintf(&b, "%-34s %8s %12s %12s %8s\n", "span", "count", "total s", "self s", "self %")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-34s %8d %12.6f %12.6f %8.2f\n", r.Name, r.Count, r.TotalS, r.SelfS, r.SelfPct)
	}
	b.WriteString("\n")
	names := make([]string, 0, len(layers))
	for n := range layers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "%-34s %16.6g\n", n, layers[n])
	}
	fmt.Fprint(w, b.String())
	if err := os.WriteFile(tablePath, []byte(b.String()), 0o644); err != nil {
		return err
	}
	t.mu.Lock()
	doc := struct {
		Spans    []span             `json:"spans"`
		SelfTime []selfRow          `json:"self_time"`
		Layers   map[string]float64 `json:"layers"`
	}{t.spans, rows, layers}
	data, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(jsonPath, data, 0o644)
}

// runtimeStats samples the Go runtime around a timed phase.
type runtimeStats struct {
	allocBytes, gcCycles, pauseNS uint64
	gcCPU, totalCPU               float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeStats {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeStats{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
		pauseNS:    ms.PauseTotalNs,
	}
}

// runtimeLayer reports the runtime's share of a timed phase of ops
// operations, from samples taken at its start and end.
func runtimeLayer(a, b runtimeStats, ops int64, out map[string]float64) {
	out["runtime.alloc_b_per_op"] = float64(b.allocBytes-a.allocBytes) / float64(ops)
	out["runtime.gc_cycles"] = float64(b.gcCycles - a.gcCycles)
	out["runtime.gc_pause_ms"] = float64(b.pauseNS-a.pauseNS) / 1e6
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		out["runtime.gc_cpu_frac"] = (b.gcCPU - a.gcCPU) / cpu
	} else {
		out["runtime.gc_cpu_frac"] = 0
	}
}

// cpuSeconds is the CPU time the process has used. Timed phases are
// measured in CPU time as well as wall time: on a shared virtual
// machine, time the hypervisor steals stretches wall time by tens of
// percent from run to run but is not charged to the process.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// startPeakRSS returns freed memory to the operating system and, on
// Linux, resets the process's peak resident set size, so that
// peakRSSMiB covers only what follows (the timed phase) instead of
// whatever setup left behind.
func startPeakRSS() {
	runtime.GC()
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort: needs Linux 4.0
}

// peakRSSMiB is the peak resident set size since startPeakRSS, or since
// process start where the kernel cannot reset it.
func peakRSSMiB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
				if kib, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kib / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median returns the median of xs (xs is reordered).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quantile is the nearest-rank quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}
