// Package sqa implements the Spot Quota Allocator (§3.3): it turns
// GDE's distributional forecasts into a time-varying spot GPU quota
// via ICDF upper bounds (inventory estimation, Eq. 9), quota
// composition (Eq. 10), and the eviction-aware feedback rule that
// adapts the safety coefficient η (Eq. 11).
package sqa

import (
	"math"

	"github.com/sjtucitlab/gfs/internal/simclock"
	"github.com/sjtucitlab/gfs/internal/stats"
)

// Table 4's allocator settings.
const (
	// guaranteeRate is the target guarantee rate P: spot tasks
	// admitted under the quota should survive their guarantee
	// duration with probability ≈ P.
	guaranteeRate = 0.9
	// theta is the queuing-time threshold θ of the η update rule.
	theta = simclock.Hour
	// etaMin and etaMax clamp the safety coefficient so the feedback
	// loop cannot run away; the paper leaves η unbounded, which is
	// safe only with well-behaved forecasts.
	etaMin, etaMax = 0.1, 2.0
)

// Config parameterizes the allocator; every other setting is Table
// 4's constant.
type Config struct {
	// H is the guarantee duration in hours; below 1 reads as 1.
	H int
}

// DefaultConfig returns the paper's Table 4 settings.
func DefaultConfig() Config { return Config{H: 1} }

// Allocator maintains the quota state.
type Allocator struct {
	cfg Config
	// p is the guarantee rate, guaranteeRate outside tests.
	p   float64
	eta float64
}

// New creates an allocator with η = 1 (Table 4's initial buffer).
func New(cfg Config) *Allocator {
	cfg.H = max(cfg.H, 1)
	return &Allocator{cfg: cfg, p: guaranteeRate, eta: 1.0}
}

// Eta returns the current safety coefficient.
func (a *Allocator) Eta() float64 { return a.eta }

// SetEta overrides η (used by the GFS-d ablation, which pins η = 1).
func (a *Allocator) SetEta(eta float64) { a.eta = eta }

// Config returns the allocator's configuration.
func (a *Allocator) Config() Config { return a.cfg }

// OrgForecast is one organization's demand distribution over the next
// H hours.
type OrgForecast struct {
	Mu    []float64
	Sigma []float64
}

// Inventory implements Eq. (9) as written in the paper's prose: the
// GPU inventory guaranteed for H hours at rate p is the capacity
// minus the summed per-organization ICDF upper bounds, floored at 0
// when aggregate demand saturates the cluster. (The printed equation
// uses max where the text implies min; we follow the text — see
// DESIGN.md.)
func (a *Allocator) Inventory(capacity float64, forecasts []OrgForecast) float64 {
	z := stats.NormICDF(a.p)
	total := 0.0
	for _, f := range forecasts {
		peak := math.Inf(-1)
		steps := a.cfg.H
		if steps > len(f.Mu) {
			steps = len(f.Mu)
		}
		for t := 0; t < steps; t++ {
			ub := f.Mu[t] + float64(z*f.Sigma[t])
			if ub > peak {
				peak = ub
			}
		}
		if peak > 0 && !math.IsInf(peak, -1) {
			total += peak
		}
	}
	if total >= capacity {
		return 0
	}
	return capacity - total
}

// Quota implements Eq. (10): Q_H = min(f(p,H)·η, S0 + Sa), where S0
// is the idle GPU count and Sa the spot GPUs already allocated with a
// guarantee of at least H hours.
func (a *Allocator) Quota(inventory, idle, guaranteedSpot float64) float64 {
	q := math.Min(inventory*a.eta, idle+guaranteedSpot)
	if q < 0 {
		return 0
	}
	return q
}

// UpdateEta implements the feedback rule of Eq. (11). evictionRate is
// the observed spot eviction rate e over the past H hours; maxQueue
// is the maximum spot queuing time l over the same window.
//
// The paper compares e against multiples of "p"; since the guarantee
// rate P is close to 1, the comparison only makes sense against the
// target eviction rate 1−P, which we use (see DESIGN.md errata).
func (a *Allocator) UpdateEta(evictionRate float64, maxQueue simclock.Duration) {
	target := 1 - a.p
	switch {
	case evictionRate > 1.5*target:
		// High eviction: spot allocation too aggressive.
		a.eta *= target / evictionRate
	case evictionRate < 0.5*target && maxQueue > theta:
		// Low eviction but long queues: too conservative.
		a.eta *= 1.5 - evictionRate/target
	}
	a.eta = min(max(a.eta, etaMin), etaMax)
}
