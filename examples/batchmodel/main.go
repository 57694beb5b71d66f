// Batchmodel demonstrates the manufacturing workflow of Section III-D:
// characterize ONE chip of a production batch, fit the inference model
// (with per-temperature correlation bands), serialize it — the blob that
// would be programmed into every chip of the batch — and then use the
// deserialized model on a DIFFERENT chip instance, including a hot read.
package main

import (
	"bytes"
	"fmt"
	"log"

	"sentinel3d/internal/experiments"
	"sentinel3d/internal/flash"
	"sentinel3d/internal/mathx"
	"sentinel3d/internal/physics"
	"sentinel3d/internal/sentinel"
)

func main() {
	log.SetFlags(0)
	scale := experiments.Quick()

	// --- Factory side: train on chip #1 with temperature bands. ---
	factoryChip, err := flash.New(scale.ChipConfig(flash.QLC, 1))
	if err != nil {
		log.Fatal(err)
	}
	tc := sentinel.TrainConfig{
		Points: []sentinel.StressPoint{
			{PECycles: 0, Hours: 24, TempC: physics.RoomTempC},
			{PECycles: 1000, Hours: 720, TempC: physics.RoomTempC},
			{PECycles: 1000, Hours: physics.YearHours, TempC: physics.RoomTempC},
			{PECycles: 3000, Hours: 2000, TempC: physics.RoomTempC},
			{PECycles: 3000, Hours: physics.YearHours, TempC: physics.RoomTempC},
			{PECycles: 5000, Hours: 4380, TempC: physics.RoomTempC},
		},
		WordlinesPerPoint: 12,
		Layout:            scale.Layout(),
		Seed:              0xfac702,
		TempBandsC:        []float64{45, 100},
	}
	model, err := sentinel.Train(factoryChip, tc)
	if err != nil {
		log.Fatal(err)
	}
	var blob bytes.Buffer
	if err := model.Save(&blob); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("factory: trained V%d model, %d temperature bands, blob %d bytes\n",
		model.SentinelVoltage, len(model.Bands), blob.Len())

	// --- Field side: a different chip of the same batch loads the blob. ---
	loaded, err := sentinel.LoadModel(&blob)
	if err != nil {
		log.Fatal(err)
	}
	fieldCfg := scale.ChipConfig(flash.QLC, 777)
	eng, err := sentinel.NewEngine(loaded, scale.Layout(),
		sentinel.DefaultCalibrator(), fieldCfg)
	if err != nil {
		log.Fatal(err)
	}
	chip, err := scale.BuildEvalChip(flash.QLC, 777, eng, 2000, physics.YearHours)
	if err != nil {
		log.Fatal(err)
	}

	// Read hot: the controller's thermal sensor selects the hot band.
	const hotC = 80
	chip.SetReadTemperature(0, hotC)
	eng.SetTemperature(hotC)

	wl := 5
	sense := chip.Sense(0, wl, loaded.SentinelVoltage, 0, 42)
	d, offsets := eng.Infer(sense)
	fmt.Printf("field chip, wordline %d read at %d C: d = %.4f\n", wl, hotC, d)
	fmt.Printf("  inferred offsets (hot band):  V2 %.1f  V8 %.1f  V15 %.1f\n",
		offsets.Get(2), offsets.Get(8), offsets.Get(15))
	room := loaded.OffsetsFromSentinelAt(offsets.Get(loaded.SentinelVoltage),
		physics.RoomTempC)
	fmt.Printf("  (room table would have said:  V2 %.1f  V8 %.1f  V15 %.1f)\n",
		room.Get(2), room.Get(8), room.Get(15))

	// Show the benefit: raw errors at hot-band vs room-table offsets.
	errsAt := func(o flash.Offsets) int {
		n := 0
		for v := 2; v <= 15; v++ {
			up, down := chip.VoltageErrors(0, wl, v, o.Get(v), mathx.Mix(9, uint64(v)))
			n += up + down
		}
		return n
	}
	fmt.Printf("  raw errors across V2..V15: hot band %d, room table %d\n",
		errsAt(offsets), errsAt(room))
}
