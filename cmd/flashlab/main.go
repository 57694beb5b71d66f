// Command flashlab is an interactive characterization bench for the
// simulated 3D NAND chips: build a chip, apply wear and retention, and
// inspect RBER, optimal read voltages and error-vs-offset sweeps — the
// Section II methodology of the paper on demand. It is a thin front-end
// over the internal/scenario registry's "charlab" experiment.
//
// Examples:
//
//	flashlab -kind qlc -pe 3000 -hours 8760 -wordlines 8
//	flashlab -kind tlc -pe 5000 -hours 8760 -temp 80 -sweep 4
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"sentinel3d/internal/obs"
	"sentinel3d/internal/parallel"
	"sentinel3d/internal/scenario"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("flashlab: ")
	var (
		kindStr   = flag.String("kind", "qlc", "cell technology: tlc or qlc")
		pe        = flag.Int("pe", 1000, "program/erase cycles of wear")
		hours     = flag.Float64("hours", 8760, "retention time in hours")
		temp      = flag.Float64("temp", 25, "retention temperature in C")
		wordlines = flag.Int("wordlines", 8, "number of wordlines to report")
		sweepV    = flag.Int("sweep", 0, "also print the error-vs-offset sweep of this voltage (0 = none)")
		seed      = flag.Uint64("seed", 1, "chip instance seed")
		full      = flag.Bool("full", false, "use full physical wordline width (slow)")
		workers   = flag.Int("workers", 0, "worker goroutines for per-wordline fan-out (0 = all CPUs); results are identical at any setting")

		faultStuck   = flag.Float64("fault-stuck", 0, "fraction of OOB-region cells stuck at an extreme Vth")
		faultOutlier = flag.Float64("fault-outlier", 0, "fraction of wordlines with an anomalous Vth shift")
		faultBurst   = flag.Float64("fault-burst", 0, "probability a read is hit by a transient sense-noise burst")
		faultSeed    = flag.Uint64("fault-seed", 0xfa17, "fault-injection seed (decisions are pure hashes of seed and address)")

		metricsOut = flag.String("metrics", "", "write a Prometheus-style metrics snapshot here at exit ('-' for stdout)")
		debugAddr  = flag.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address during the run")
	)
	flag.Parse()
	parallel.SetWorkers(*workers)

	switch strings.ToLower(*kindStr) {
	case "tlc", "qlc":
	default:
		log.Fatalf("unknown kind %q (want tlc or qlc)", *kindStr)
	}
	scaleStr := "quick"
	if *full {
		scaleStr = "full"
	}

	var reg *obs.Registry
	if *metricsOut != "" || *debugAddr != "" {
		reg = obs.NewRegistry(1)
	}
	if *debugAddr != "" {
		srv, err := obs.Serve(*debugAddr, reg)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		fmt.Printf("debug endpoint: http://%s/metrics\n", srv.Addr)
	}

	var fault *scenario.FaultSpec
	if *faultStuck > 0 || *faultOutlier > 0 || *faultBurst > 0 {
		fault = &scenario.FaultSpec{
			Seed:              *faultSeed,
			StuckRate:         *faultStuck,
			StuckHighFraction: 0.5,
			OutlierWLRate:     *faultOutlier,
			BurstRate:         *faultBurst,
		}
	}

	res, err := scenario.Run(&scenario.Matrix{Name: "flashlab", Cells: []scenario.Spec{{
		Name:       "flashlab",
		Experiment: "charlab",
		Scale:      scaleStr,
		Kind:       strings.ToLower(*kindStr),
		PE:         *pe,
		Hours:      *hours,
		TempC:      *temp,
		Wordlines:  *wordlines,
		SweepV:     *sweepV,
		Seed:       *seed,
		Fault:      fault,
	}}}, scenario.RunOptions{Obs: reg})
	if err != nil {
		log.Fatal(err)
	}
	if fault != nil {
		fmt.Printf("faults: stuck %.3g, outlier WLs %.3g, bursts %.3g, seed %d\n",
			*faultStuck, *faultOutlier, *faultBurst, *faultSeed)
	}
	fmt.Print(res.Cells[0].Render)

	if *metricsOut != "" {
		if err := obs.Dump(*metricsOut, reg); err != nil {
			log.Fatal(err)
		}
	}
}
