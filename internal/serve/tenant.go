package serve

import (
	"fmt"

	"sentinel3d/internal/obs"
)

// TenantConfig is one tenant's QoS contract: an admission rate, a
// latency-SLO tier (lower tier = higher priority; the ladder sheds the
// highest tiers first), the retry policy its reads use, and a default
// per-request deadline.
type TenantConfig struct {
	Name string `json:"name"`
	// Tier is the SLO tier: 0 is the most protected. Tenants with
	// Tier >= 2 (shedTier) are shed at ladder level 1.
	Tier int `json:"tier"`
	// RatePerSec and Burst parameterize the token bucket; RatePerSec 0
	// means unlimited (no bucket).
	RatePerSec float64 `json:"rate_per_sec"`
	Burst      float64 `json:"burst,omitempty"`
	// SLOMs is the tenant's wall-clock latency objective; flashbench
	// counts responses slower than this as SLO violations.
	SLOMs float64 `json:"slo_ms"`
	// Policy names the retry sampler ("sentinel", "table", "ar2",
	// "history", "sentinel+history"); default "sentinel". Ladder
	// level 2 overrides it to "table".
	Policy string `json:"policy,omitempty"`
	// DeadlineMs is the default request deadline when the request body
	// carries none. Default 1000.
	DeadlineMs float64 `json:"deadline_ms,omitempty"`
}

func (c *TenantConfig) withDefaults() error {
	if c.Name == "" {
		return fmt.Errorf("serve: tenant with empty name")
	}
	if c.Tier < 0 {
		return fmt.Errorf("serve: tenant %q has negative tier %d", c.Name, c.Tier)
	}
	if c.RatePerSec < 0 {
		return fmt.Errorf("serve: tenant %q has negative rate %g", c.Name, c.RatePerSec)
	}
	if c.Burst == 0 {
		c.Burst = 2 * c.RatePerSec
		if c.Burst < 64 {
			c.Burst = 64
		}
	}
	if c.Policy == "" {
		c.Policy = "sentinel"
	}
	if c.SLOMs <= 0 {
		c.SLOMs = 50
	}
	if c.DeadlineMs <= 0 {
		c.DeadlineMs = 1000
	}
	return nil
}

// DefaultTenants is the three-tier fleet flashd serves when no tenant
// file is given: a protected sentinel-policy tier, a rate-limited
// middle tier, and a best-effort tier that is first to be shed.
func DefaultTenants() []TenantConfig {
	return []TenantConfig{
		{Name: "gold", Tier: 0, RatePerSec: 0, SLOMs: 20, Policy: "sentinel", DeadlineMs: 250},
		{Name: "silver", Tier: 1, RatePerSec: 2000, SLOMs: 50, Policy: "sentinel", DeadlineMs: 500},
		{Name: "bronze", Tier: 2, RatePerSec: 500, SLOMs: 200, Policy: "table", DeadlineMs: 1000},
	}
}

// tenantMetrics are one tenant's per-outcome counters plus a wall-time
// histogram, all on the registry's shard-0 set (tenant cardinality is
// small; the sharding that matters is the fleet's).
type tenantMetrics struct {
	ok            *obs.Counter
	shed          *obs.Counter
	throttled     *obs.Counter
	queueFull     *obs.Counter
	deadline      *obs.Counter
	uncorrectable *obs.Counter
	fallback      *obs.Counter
	failFast      *obs.Counter
	forcedTable   *obs.Counter
	sloViolations *obs.Counter
	wallUS        *obs.Hist
}

// tenant is the runtime state behind one TenantConfig.
type tenant struct {
	cfg    TenantConfig
	bucket *TokenBucket
	m      tenantMetrics
}

func newTenant(cfg TenantConfig, set *obs.Set) *tenant {
	p := "serve.tenant." + cfg.Name + "."
	return &tenant{
		cfg:    cfg,
		bucket: NewTokenBucket(cfg.RatePerSec, cfg.Burst),
		m: tenantMetrics{
			ok:            set.Counter(p+"ok", "requests answered 200"),
			shed:          set.Counter(p+"shed", "requests shed by the overload ladder"),
			throttled:     set.Counter(p+"throttled", "requests rejected by the token bucket"),
			queueFull:     set.Counter(p+"queue_full", "requests bounced off a full shard queue"),
			deadline:      set.Counter(p+"deadline", "requests past deadline (reject-on-arrival or late reply)"),
			uncorrectable: set.Counter(p+"uncorrectable", "requests with at least one uncorrectable page"),
			fallback:      set.Counter(p+"fallback", "requests that used the static-table fallback"),
			failFast:      set.Counter(p+"fail_fast", "requests cut off by the fail-fast retry budget"),
			forcedTable:   set.Counter(p+"forced_table", "requests whose policy was overridden to the static table"),
			sloViolations: set.Counter(p+"slo_violations", "answered requests slower than the tenant SLO"),
			wallUS:        set.WallHist(p+"wall_us", "wall-clock request latency"),
		},
	}
}
