package experiments

import (
	"fmt"

	"sentinel3d/internal/flash"
	"sentinel3d/internal/mathx"
	"sentinel3d/internal/parallel"
	"sentinel3d/internal/physics"
	"sentinel3d/internal/ssdsim"
	"sentinel3d/internal/trace"
)

// ---------------------------------------------------------------------------
// Device lifetime as a replay axis: the same trace replayed at several
// points of the device's life, under several ambient-temperature
// schedules, with stress evolving *during* the replay.

// AgePreset names one point of a device's life: the P/E wear and the
// effective room-temperature retention its resident data starts with.
type AgePreset struct {
	Name  string
	PE    int
	Hours float64
}

// agePresets are the named lifetime points shared by the scenario layer
// (`"age": "worn"`), the tracesim CLI (-age) and the lifetime sweep.
// "worn" matches the frozen-stress replay default (5000 cycles, one
// year), so an aged lifetime cell is directly comparable to the legacy
// frozen cells.
var agePresets = []AgePreset{
	{Name: "fresh", PE: 0, Hours: 24},
	{Name: "mid", PE: 2000, Hours: 2000},
	{Name: "worn", PE: 5000, Hours: physics.YearHours},
}

// AgeByName resolves a named age preset.
func AgeByName(name string) (AgePreset, bool) {
	for _, a := range agePresets {
		if a.Name == name {
			return a, true
		}
	}
	return AgePreset{}, false
}

// ScheduleByName resolves a named ambient-temperature schedule: "room"
// (constant 25°C), "hot" (constant 55°C) and "diurnal" (a 24-hour
// square wave spending half of every day at 50°C).
func ScheduleByName(name string) (physics.TempSchedule, bool) {
	switch name {
	case "room":
		return physics.ConstantTemp(physics.RoomTempC), true
	case "hot":
		return physics.ConstantTemp(55), true
	case "diurnal":
		return physics.SquareWave(physics.RoomTempC, 50, 24, 0.5), true
	}
	return physics.TempSchedule{}, false
}

// LifetimeGridHours is the retention grid a lifetime replay measures
// its sampler pools at, anchored at the age preset's base retention:
// the starting point, four months on, and a year on. A replay
// time-lapsed to span a year of device life climbs through all three.
func LifetimeGridHours(base float64) []float64 {
	return []float64{base, base + physics.YearHours/3, base + physics.YearHours}
}

// lifetimePolicies is the comparison set, in table order.
var lifetimePolicies = []string{"table", "sentinel", "sentinel+history"}

// lifetimeSchedules is the sweep's schedule subset (hot is expressible
// but adds no contrast over diurnal's hot band at triple the replays).
var lifetimeSchedules = []string{"room", "diurnal"}

// LifetimeCell is one (age, schedule, policy) replay outcome.
type LifetimeCell struct {
	Age      string
	Schedule string
	Policy   string
	// SensesPerRead is the mean flash sensing operations per mapped page
	// read: attempts (1 + retries) plus auxiliary single-voltage senses.
	SensesPerRead float64
	MeanReadUS    float64
	P99ReadUS     float64
	// DeviceHours is the span of device life the replay covered;
	// Calibrations and RunErases what the lifetime machinery did in it.
	DeviceHours  float64
	Calibrations int64
	RunErases    int64
}

// LifetimeResult holds the full age x schedule x policy sweep.
type LifetimeResult struct {
	Requests int
	// Cells is (age, schedule)-major, lifetimePolicies order within a
	// group.
	Cells []LifetimeCell
	// Violations counts aged (non-fresh) groups where a sentinel-family
	// policy needed at least as many senses per read as the static table
	// (the acceptance criterion is zero).
	Violations int
}

// Lifetime replays one read-heavy trace at three points of the device's
// life (fresh, mid-life, worn) under two ambient-temperature schedules,
// with per-block stress evolving during the replay: the retention clock
// is driven from the trace's own timestamps (time-lapsed so the trace
// spans over a year of device life), erases cycle blocks, and a
// background calibration scheduler periodically steals die time. Retry
// pools are measured on real aged chips at each age's retention grid —
// per policy — so as blocks climb the grid the read cost diverges:
// the static table walks further at every step while sentinel-family
// policies keep inferring the offsets. The acceptance criterion is that
// sentinel and sentinel+history beat the table on senses-per-read at
// every aged (mid, worn) point of the sweep.
func Lifetime(s Scale, requests int) (*LifetimeResult, error) {
	// Train once before the fan-out so every grid point shares the model.
	if _, err := s.TrainModel(flash.TLC, 114); err != nil {
		return nil, err
	}

	// Measure the sampler grid: one aged chip per (age, retention hour)
	// point, three policy pools per chip. Points fan out; each builds
	// its own chip from a point-keyed seed, so the grid is a pure
	// function of (scale, age, hour) regardless of worker count. Each
	// point holds its pools in lifetimePolicies order.
	ages := agePresets
	grids := make([][]float64, len(ages))
	for ai, age := range ages {
		grids[ai] = LifetimeGridHours(age.Hours)
	}
	nHours := len(grids[0])
	points, err := parallel.MapErr(len(ages)*nHours, func(pi int) ([]*ssdsim.EmpiricalSampler, error) {
		age := ages[pi/nHours]
		hours := grids[pi/nHours][pi%nHours]
		tb, err := s.Testbed(flash.TLC, 114, mathx.Mix(0x11fe, uint64(pi)), age.PE, hours)
		if err != nil {
			return nil, err
		}
		wls := tb.spreadWLs()
		var pools []*ssdsim.EmpiricalSampler
		for i, name := range lifetimePolicies {
			pool, err := tb.Sampler(name, wls, mathx.Mix(0x11fe+1, uint64(pi*8+i)))
			if err != nil {
				return nil, err
			}
			pools = append(pools, pool)
		}
		return pools, nil
	})
	if err != nil {
		return nil, err
	}

	simCfg := TraceDevice()
	// One read-heavy workload, materialized once: every (age, schedule,
	// policy) cell replays the identical trace, isolating the lifetime
	// axes.
	spec, err := trace.WorkloadByName("mds_0")
	if err != nil {
		return nil, err
	}
	reqs, err := trace.Generate(paperWorkload(spec), requests, 0x11fe)
	if err != nil {
		return nil, err
	}
	// Time-lapse the trace to span 1.5x a year of device life, so every
	// replay climbs through the full retention grid (grid steps are
	// +1/3 year and +1 year). The factor is a pure function of the
	// materialized trace.
	traceSec := reqs[len(reqs)-1].ArriveUS * 1e-6
	if traceSec <= 0 {
		traceSec = 1
	}
	hoursPerSecond := 1.5 * physics.YearHours / traceSec

	res := &LifetimeResult{Requests: requests}
	// Groups are age-major, lifetimeSchedules order within an age.
	ns := len(lifetimeSchedules)
	rows, err := parallel.MapErr(len(ages)*ns, func(gi int) ([]LifetimeCell, error) {
		ai, age := gi/ns, ages[gi/ns]
		schedName := lifetimeSchedules[gi%ns]
		sched, _ := ScheduleByName(schedName)
		cells := make([]LifetimeCell, 0, len(lifetimePolicies))
		for pidx, name := range lifetimePolicies {
			ls := &ssdsim.LifetimeSampler{PEs: []int{age.PE}, Hours: grids[ai]}
			for j := 0; j < nHours; j++ {
				ls.Pools = append(ls.Pools, points[ai*nHours+j][pidx])
			}
			cfg := simCfg
			cfg.Life = &ssdsim.LifetimeConfig{
				BasePE:             age.PE,
				BaseRetentionHours: age.Hours,
				Schedule:           sched,
				HoursPerSecond:     hoursPerSecond,
				CalibPeriodHours:   730, // monthly
				CalibDriftHours:    2000,
				CalibUS:            300,
			}
			rep, err := replayTrace(cfg, ls, trace.SliceOpener(reqs), nil)
			if err != nil {
				return nil, err
			}
			cell := LifetimeCell{
				Age: age.Name, Schedule: schedName, Policy: name,
				MeanReadUS:    rep.MeanReadUS,
				P99ReadUS:     rep.P99ReadUS,
				DeviceHours:   rep.Life.DeviceHours,
				Calibrations:  rep.Life.Calibrations,
				RunErases:     rep.Life.RunErases,
				SensesPerRead: sensesPerRead(rep),
			}
			cells = append(cells, cell)
		}
		return cells, nil
	})
	if err != nil {
		return nil, err
	}
	for _, cells := range rows {
		res.Cells = append(res.Cells, cells...)
	}
	np := len(lifetimePolicies)
	for g := 0; g < len(res.Cells); g += np {
		cells := res.Cells[g : g+np]
		if cells[0].Age == "fresh" {
			// A fresh device barely retries: sentinel's auxiliary senses
			// are pure overhead there, which is exactly why lifetime
			// matters as an axis. The claim is about aged devices.
			continue
		}
		// Cells are built in lifetimePolicies order: the table first.
		for _, c := range cells[1:] {
			if c.SensesPerRead >= cells[0].SensesPerRead {
				res.Violations++
			}
		}
	}
	return res, nil
}

// Result reports the senses-per-read and latency matrices, the lifetime
// machinery per group and the acceptance count.
func (r *LifetimeResult) Result() Result {
	np := len(lifetimePolicies)
	header := append([]string{"age", "schedule"}, lifetimePolicies...)
	senses := Table{Title: "mean senses per mapped page read", Header: header}
	lat := Table{Title: "mean read latency, µs", Header: header}
	life := Table{Title: "lifetime machinery (per group; identical across policies)",
		Header: []string{"age", "schedule", "device-hours", "calibs", "erases"}}
	for g := 0; g < len(r.Cells); g += np {
		cells := r.Cells[g : g+np]
		srow := []string{cells[0].Age, cells[0].Schedule}
		lrow := []string{cells[0].Age, cells[0].Schedule}
		for i := range cells {
			srow = append(srow, fmt.Sprintf("%.3f", cells[i].SensesPerRead))
			lrow = append(lrow, fmt.Sprintf("%.0f", cells[i].MeanReadUS))
		}
		senses.Rows = append(senses.Rows, srow)
		lat.Rows = append(lat.Rows, lrow)
		c := &cells[0]
		life.Rows = append(life.Rows, []string{c.Age, c.Schedule,
			fmt.Sprintf("%.0f", c.DeviceHours), fmt.Sprint(c.Calibrations), fmt.Sprint(c.RunErases)})
	}
	return Result{
		Title: fmt.Sprintf("device lifetime sweep: %d requests/cell, stress evolving during replay", r.Requests),
		Headlines: []Headline{{Name: "aged cells where sentinel does not beat table on senses/read",
			Value: float64(r.Violations), Unit: "cells"}},
		Tables: []Table{senses, lat, life},
	}
}
