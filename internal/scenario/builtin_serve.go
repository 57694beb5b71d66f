package scenario

import (
	"context"
	"fmt"

	"sentinel3d/internal/experiments"
	"sentinel3d/internal/serve"
	"sentinel3d/internal/ssdsim"
)

// This file holds the "serve" experiment: an in-process flashd
// (serving fleet + QoS layer) driven by a closed-loop flashbench run.
// It is the serving layer's end-to-end determinism cell — the
// closed-loop report is a pure function of the cell seed, so it
// golden-gates in CI exactly like the figures.

// servePremapPages is the fleet's premapped footprint, matched by the
// bench's MaxLPN so every drawn LPN resolves.
const servePremapPages = 4096

// serveShards is the serve cell's fleet shard count; runCell sizes the
// cell's obs registry to it.
const serveShards = 2

// ServeResult is the serve cell's deterministic payload: the stripped
// closed-loop report plus the fleet shape it ran against.
type ServeResult struct {
	Shards  int
	Tenants []serve.TenantReport
}

// Result reports the per-tenant outcome table.
func (r *ServeResult) Result() experiments.Result {
	rows := make([][]string, 0, len(r.Tenants))
	for _, t := range r.Tenants {
		rows = append(rows, []string{
			t.Tenant, fmt.Sprint(t.Requests), fmt.Sprint(t.OK),
			fmt.Sprint(t.Retries), fmt.Sprint(t.AuxSenses),
			fmt.Sprintf("%.1f", t.SimP50US), fmt.Sprintf("%.1f", t.SimP99US),
			t.Check,
		})
	}
	return experiments.Result{Tables: []experiments.Table{{
		Header: []string{"tenant", "reqs", "ok", "retries", "aux", "sim p50", "sim p99", "check"},
		Rows:   rows,
	}}}
}

// runServe brings up the serving stack on a loopback port, runs the
// fixed-seed closed loop against it, drains, and returns the
// deterministic report section as the payload. Wall-clock throughput
// goes to metrics, never the digest.
func runServe(ctx *Ctx) (*Outcome, error) {
	// A CLI-level registry narrower than the fleet's shard count cannot
	// hold per-shard cells; run on a private registry rather than
	// failing the cell (same rule as the replay runner).
	reg := ctx.Obs
	if reg != nil && reg.Shards() < serveShards {
		reg = nil
	}
	cfg := serve.Config{
		Fleet: ssdsim.FleetConfig{
			Sim: func() ssdsim.Config {
				sim := experiments.TraceDevice()
				sim.Seed = ctx.Seed
				return sim
			}(),
			Shards:      serveShards,
			PremapPages: servePremapPages,
			Samplers:    serve.DefaultSamplers(),
		},
		// Unlimited rates: closed-loop byte-identity requires that no
		// outcome depends on wall-clock timing, and throttling does.
		Tenants: []serve.TenantConfig{
			{Name: "gold", Tier: 0, SLOMs: 20, Policy: "sentinel", DeadlineMs: 2000},
			{Name: "bronze", Tier: 2, SLOMs: 200, Policy: "table", DeadlineMs: 2000},
		},
		Obs: reg,
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	defer srv.Close()

	bctx := ctx.Context
	if bctx == nil {
		bctx = context.Background()
	}
	reqs := int64(ctx.Requests(400))
	rep, err := serve.RunBench(bctx, serve.BenchConfig{
		BaseURL: "http://" + srv.Addr(),
		Seed:    ctx.Seed,
		MaxLPN:  servePremapPages,
		Tenants: []serve.BenchTenant{
			{Name: "gold", Workers: 4, Requests: reqs, SLOMs: 20},
			{Name: "bronze", Workers: 2, Requests: reqs / 2, BatchSize: 3, SLOMs: 200},
		},
	})
	if err != nil {
		return nil, err
	}
	if err := bctx.Err(); err != nil {
		return nil, fmt.Errorf("serve cell canceled: %w", err)
	}
	if err := rep.AccountingErr(); err != nil {
		return nil, err
	}
	for _, t := range rep.Tenants {
		if t.OK != t.Requests {
			return nil, fmt.Errorf("serve cell: tenant %q %d/%d OK in an unloaded closed loop",
				t.Tenant, t.OK, t.Requests)
		}
	}
	res := &ServeResult{Shards: cfg.Fleet.Shards, Tenants: rep.Deterministic().Tenants}
	metrics := map[string]float64{
		"req/s":   sumAchievedRPS(rep),
		"mean-us": meanSimUS(rep),
	}
	if reg != nil {
		metrics["obs-series"] = obsSeries(reg)
	}
	return &Outcome{Payload: res, Result: res.Result(), Metrics: metrics}, nil
}

// sumAchievedRPS totals the tenants' wall-clock throughput.
func sumAchievedRPS(rep *serve.BenchReport) float64 {
	var sum float64
	for _, t := range rep.Tenants {
		sum += t.AchievedRPS
	}
	return sum
}

// meanSimUS averages the tenants' mean simulated service times.
func meanSimUS(rep *serve.BenchReport) float64 {
	if len(rep.Tenants) == 0 {
		return 0
	}
	var sum float64
	for _, t := range rep.Tenants {
		sum += t.SimMeanUS
	}
	return sum / float64(len(rep.Tenants))
}
