// Quickstart: build a simulated QLC chip, age it a year, and compare how
// many read retries the stock retry table needs against the paper's
// sentinel inference.
package main

import (
	"fmt"
	"log"

	"sentinel3d/internal/experiments"
	"sentinel3d/internal/flash"
	"sentinel3d/internal/physics"
	"sentinel3d/internal/retry"
)

func main() {
	log.SetFlags(0)
	scale := experiments.Quick()

	// 1. Manufacturing time: characterize one chip of the batch and fit
	//    the inference model (f(d) + per-voltage correlations).
	model, err := scale.TrainModel(flash.QLC, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained model: sentinel voltage V%d, f(d) degree %d\n",
		model.SentinelVoltage, model.F.Degree())

	// 2. Deployment: a different chip of the same batch, written with the
	//    sentinel pattern, worn to 1000 P/E cycles and left for a year.
	cfg := scale.ChipConfig(flash.QLC, 99)
	eng, err := scale.Engine(model, cfg)
	if err != nil {
		log.Fatal(err)
	}
	chip, err := scale.BuildEvalChip(flash.QLC, 99, eng, 1000, physics.YearHours)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Read MSB pages under both policies.
	ctl, err := scale.Controller(chip, 15)
	if err != nil {
		log.Fatal(err)
	}
	table := retry.NewDefaultTable(chip, 2)
	sentinelPolicy := retry.NewSentinelPolicy(eng)
	msb := chip.Coding().Bits() - 1

	var tSum, sSum, tLat, sLat float64
	n := chip.Config().WordlinesPerBlock()
	for wl := 0; wl < n; wl++ {
		rT := ctl.Read(wl, msb, table, uint64(wl)*2)
		rS := ctl.Read(wl, msb, sentinelPolicy, uint64(wl)*2+1)
		tSum += float64(rT.Retries)
		sSum += float64(rS.Retries)
		tLat += rT.Latency
		sLat += rS.Latency
	}
	fmt.Printf("MSB reads over %d wordlines (P/E 1000, 1-year retention):\n", n)
	fmt.Printf("  current flash: %.2f retries/read, %.0f µs/read\n",
		tSum/float64(n), tLat/float64(n))
	fmt.Printf("  sentinel:      %.2f retries/read, %.0f µs/read\n",
		sSum/float64(n), sLat/float64(n))
	fmt.Printf("  retry reduction: %.0f%%, latency reduction: %.0f%%\n",
		100*(1-sSum/tSum), 100*(1-sLat/tLat))
}
