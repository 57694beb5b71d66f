// Command perfbench is the repository benchmark: it runs one workload
// for a fixed time, checks the program's outputs, prints every
// end-to-end metric by name and unit, and ends with one JSON line.
//
//	go build -o perfbench . && ./perfbench --workload replay_read --seed 1 --seconds 10 --trace 0
//
// With --trace 1 it runs the workload twice, each in a fresh process:
// untraced in a child, then traced in this process with spans recorded
// around every call into a layer. It checks that both runs produced
// byte-identical simulated outputs, prints the per-layer metrics and
// the self-time table, and writes both (with the spans) under --out.
// README.md describes the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// runConfig is one run's parameters.
type runConfig struct {
	seed     uint64
	duration time.Duration
	traced   bool
}

// result is what a workload run measured.
type result struct {
	attempted, failed int64
	e2e               map[string]float64
	layers            map[string]float64
	// runtime holds the Go runtime's cost over the timed phase.
	runtime map[string]float64
	// det is the run's deterministic output: the simulated results,
	// which must not depend on tracing or timing.
	det  []byte
	info string
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layers: map[string]float64{}, runtime: map[string]float64{}}
}

type workload interface {
	run(cfg runConfig, tr *tracer) (*result, error)
}

// workloads are described in README.md.
var workloads = map[string]workload{
	"replay_read":  &replayWorkload{volume: "mds_0", requests: 2 << 20, devices: 1, binary: true},
	"replay_write": &replayWorkload{volume: "prxy_0", requests: 2 << 20, devices: 8, lifetime: true},
	"serve_read":   &serveWorkload{},
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, in print order.
var endToEnd = []metricDef{
	{"ops_per_cpu_s", "1/s"},
	{"setup_s", "s"},
	{"max_rss_mib", "MiB"},
	{"wall_p50_us", "us"},
	{"sim_read_mean_us", "sim_us"},
	{"sim_read_p99_us", "sim_us"},
	{"retries_per_read", "count"},
	{"ok_frac", "fraction"},
}

// perLayer are the metrics of a traced run. A layer the workload does
// not run reports 0.
var perLayer = []metricDef{
	{"ops_per_wall_s", "1/s"},
	{"trace.gen_ns_per_req", "ns"},
	{"trace.s3dt_decode_ns_per_req", "ns"},
	{"trace.s3dt_encode_s", "s"},
	{"ssdsim.replay_ns_per_req", "ns"},
	{"ssdsim.precondition_ns_per_req", "ns"},
	{"ssdsim.engine_self_ns_per_req", "ns"},
	{"ssdsim.sampler_draw_ns", "ns"},
	{"ssdsim.queue_wait_us_mean", "sim_us"},
	{"ssdsim.aux_senses_per_read", "count"},
	{"ssdsim.sim_write_mean_us", "sim_us"},
	{"ssdsim.device_req_imbalance", "ratio"},
	{"ssdsim.calibrations", "count"},
	{"ssdsim.calib_busy_us", "sim_us"},
	{"ssdsim.run_erases", "count"},
	{"ssdsim.max_block_wear", "count"},
	{"ssdsim.backlog_ratio", "ratio"},
	{"ssdsim.chunk_us_p99", "us"},
	{"ftl.write_ns", "ns"},
	{"ftl.translate_ns", "ns"},
	{"ftl.gc_relocations_per_host_write", "ratio"},
	{"ftl.erases", "count"},
	{"mathx.loghist_add_ns", "ns"},
	{"mathx.loghist_merge_ns", "ns"},
	{"sentinel.train_s", "s"},
	{"flash.eval_chip_s", "s"},
	{"retry.build_sampler_s", "s"},
	{"retry.chip_reads", "count"},
	{"retry.us_per_chip_read", "us"},
	{"retry.retries_per_chip_read", "count"},
	{"sentinel.infers", "count"},
	{"serve.New_s", "s"},
	{"serve.Start_s", "s"},
	{"serve.warmup_s", "s"},
	{"serve.http_rtt_us_p50", "us"},
	{"serve.http_rtt_us_p99", "us"},
	{"serve.fleet_submit_us_p50", "us"},
	{"serve.fleet_submit_us_p99", "us"},
	{"serve.overhead_us_p50", "us"},
	{"fleet.queue_wait_us_p99", "us"},
	{"fleet.shard_imbalance", "ratio"},
	{"serve.ladder_transitions", "count"},
	{"setup.children_frac", "fraction"},
	{"share.generator_frac", "fraction"},
	{"share.read_path_frac", "fraction"},
	{"share.http_frac", "fraction"},
	{"runtime.alloc_b_per_op", "B"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.gc_cpu_frac", "fraction"},
	{"obs.trace_overhead_frac", "fraction"},
}

// childOut is what an untraced child run hands its traced parent.
type childOut struct {
	Det     string             `json:"det"`
	OpsPerS float64            `json:"ops_per_wall_s"`
	Runtime map[string]float64 `json:"runtime"`
}

func main() {
	name := flag.String("workload", "", "workload to run (replay_read, replay_write, serve_read)")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the timed phase")
	traced := flag.Int("trace", 0, "1: add a traced run and report per-layer metrics")
	out := flag.String("out", "perfbench/out", "directory for the traced run's ledger")
	childFile := flag.String("child-out", "", "internal: where an untraced child writes its outputs")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, duration: time.Duration(*seconds) * time.Second}
	var res *result
	var err error
	if *traced == 1 {
		res, err = tracedRun(w, cfg, *name, *out)
	} else {
		res, err = w.run(cfg, nil)
		if err == nil && *childFile != "" {
			err = writeChild(*childFile, res)
		}
	}
	if err == nil {
		err = checkFinite(res)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: FAIL: %v\n", *name, *seed, err)
		fmt.Println(`{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}`)
		os.Exit(1)
	}
	defs, vals := endToEnd, res.e2e
	if *traced == 1 {
		defs, vals = perLayer, res.layers
	}
	fmt.Printf("%s seed %d: %s\n", *name, *seed, res.info)
	metrics := map[string]any{}
	for _, d := range defs {
		fmt.Printf("  %-36s %16.6g %s\n", d.name, vals[d.name], d.unit)
		metrics[d.name] = map[string]any{"value": vals[d.name], "unit": d.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": true, "attempted": res.attempted, "failed": res.failed, "metrics": metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func writeChild(path string, res *result) error {
	data, err := json.Marshal(childOut{Det: string(res.det), OpsPerS: res.layers["ops_per_wall_s"], Runtime: res.runtime})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracedRun runs the workload untraced in a child process, then traced
// here, and derives the per-layer metrics from both.
func tracedRun(w workload, cfg runConfig, name, outDir string) (*result, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", name, cfg.seed))
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	childPath := base + ".untraced.json"
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatUint(cfg.seed, 10),
		"--seconds", strconv.Itoa(int(cfg.duration/time.Second)), "--trace", "0", "--child-out", childPath)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("untraced run: %w\n%s", err, stdout.String())
	}
	data, err := os.ReadFile(childPath)
	if err != nil {
		return nil, err
	}
	var child childOut
	if err := json.Unmarshal(data, &child); err != nil {
		return nil, err
	}

	tr := newTracer()
	cfg.traced = true
	res, err := w.run(cfg, tr)
	if err != nil {
		return nil, err
	}
	if string(res.det) != child.Det {
		return nil, errors.New("traced and untraced runs produced different simulated outputs")
	}
	res.layers["obs.trace_overhead_frac"] = 1 - res.layers["ops_per_wall_s"]/child.OpsPerS
	for k, v := range child.Runtime {
		res.layers[k] = v
	}
	for _, d := range perLayer {
		if _, ok := res.layers[d.name]; !ok {
			res.layers[d.name] = 0
		}
	}
	if err := tr.writeLedger(os.Stdout, base+".trace.json", base+".ledger.txt", res.layers); err != nil {
		return nil, err
	}
	return res, nil
}

// checkFinite fails a run whose reported metrics are not all finite.
func checkFinite(res *result) error {
	var bad []string
	for _, m := range []map[string]float64{res.e2e, res.layers} {
		for k, v := range m {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				bad = append(bad, k)
			}
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("non-finite metrics %v", bad)
	}
	return nil
}
