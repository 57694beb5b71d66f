package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"sentinel3d/internal/mathx"
)

// CounterSnap is one counter family merged across shards. Volatile
// marks a wall-clock family (Set.WallCounter).
type CounterSnap struct {
	Name, Help string
	Value      int64
	Volatile   bool
}

// GaugeSnap is one shard's gauge cell (gauges are per-shard facts —
// e.g. a shard's replay rate — so they are not merged).
type GaugeSnap struct {
	Name, Help string
	Shard      int
	Value      float64
}

// HistSnap is one histogram family merged across shards in shard
// order. Volatile marks a wall-clock family (Set.WallHist).
type HistSnap struct {
	Name, Help string
	Hist       *mathx.LogHist
	Volatile   bool
}

// Snapshot is a point-in-time view of a registry. Taken after writers
// quiesce it is exact and — gauges and volatile families aside —
// byte-identical at any worker count when rendered.
type Snapshot struct {
	Counters []CounterSnap
	Gauges   []GaugeSnap
	Hists    []HistSnap
	Slow     []SlowRead
}

// Snapshot gathers every family, merging per-shard cells in fixed
// shard order, and the merged slow-read trace. A nil registry yields
// an empty snapshot.
func (r *Registry) Snapshot() *Snapshot {
	snap := &Snapshot{}
	if r == nil {
		return snap
	}
	for _, f := range r.sortedFamilies() {
		switch f.kind {
		case kindCounter:
			var total int64
			for _, c := range f.counters {
				total += c.Value()
			}
			snap.Counters = append(snap.Counters, CounterSnap{f.name, f.help, total, f.wall})
		case kindGauge:
			for s, g := range f.gauges {
				if v, ok := g.Value(); ok {
					snap.Gauges = append(snap.Gauges, GaugeSnap{f.name, f.help, s, v})
				}
			}
		case kindHist:
			merged := &mathx.LogHist{}
			for _, h := range f.hists {
				merged.Merge(h.snapshot())
			}
			snap.Hists = append(snap.Hists, HistSnap{f.name, f.help, merged, f.wall})
		}
	}
	r.mu.Lock()
	rings, slowN := r.rings, r.slowN
	r.mu.Unlock()
	if rings != nil {
		snap.Slow = mergeSlow(rings, slowN)
	}
	return snap
}

// Deterministic returns the snapshot with the wall-clock-derived
// gauges and volatile counters and histograms stripped: everything left
// is a pure function of the workload, so two runs of the same trace
// render identically at any worker count. Determinism tests compare
// this view.
func (s *Snapshot) Deterministic() *Snapshot {
	out := *s
	out.Gauges = nil
	out.Counters = nil
	for _, c := range s.Counters {
		if !c.Volatile {
			out.Counters = append(out.Counters, c)
		}
	}
	out.Hists = nil
	for _, h := range s.Hists {
		if !h.Volatile {
			out.Hists = append(out.Hists, h)
		}
	}
	return &out
}

// promName maps a dotted metric name onto the Prometheus grammar:
// "retry.reads" -> "sentinel3d_retry_reads".
func promName(name string) string {
	var b strings.Builder
	b.WriteString("sentinel3d_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_',
			c >= '0' && c <= '9' && b.Len() > 0:
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

func promFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func promHeader(w io.Writer, name, help, typ string) error {
	if help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, help); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
	return err
}

// histQuantiles are the quantile labels a histogram family exports.
var histQuantiles = []float64{0.5, 0.95, 0.99}

// WritePrometheus renders the snapshot in the Prometheus text format:
// counters and gauges as-is (gauges with a shard label), histograms as
// summaries with quantile labels plus _sum/_count/_min/_max series.
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	for _, c := range s.Counters {
		n := promName(c.Name)
		if err := promHeader(w, n, c.Help, "counter"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", n, c.Value); err != nil {
			return err
		}
	}
	for i, g := range s.Gauges {
		n := promName(g.Name)
		if i == 0 || s.Gauges[i-1].Name != g.Name {
			if err := promHeader(w, n, g.Help, "gauge"); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s{shard=\"%d\"} %s\n", n, g.Shard, promFloat(g.Value)); err != nil {
			return err
		}
	}
	for _, h := range s.Hists {
		n := promName(h.Name)
		if err := promHeader(w, n, h.Help, "summary"); err != nil {
			return err
		}
		for _, q := range histQuantiles {
			if _, err := fmt.Fprintf(w, "%s{quantile=\"%s\"} %s\n",
				n, promFloat(q), promFloat(h.Hist.Quantile(q))); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n%s_min %s\n%s_max %s\n",
			n, promFloat(h.Hist.Sum()), n, h.Hist.Count(),
			n, promFloat(h.Hist.Min()), n, promFloat(h.Hist.Max())); err != nil {
			return err
		}
	}
	return nil
}

// WriteSlowJSONL dumps the merged slow-read trace, one JSON object per
// line, slowest first.
func (s *Snapshot) WriteSlowJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for i := range s.Slow {
		if err := enc.Encode(&s.Slow[i]); err != nil {
			return err
		}
	}
	return nil
}
