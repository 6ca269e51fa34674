// Package core composes the paper's three modules — the GPU Demand
// Estimator (internal/gde), the Spot Quota Allocator (internal/sqa)
// and the Preemptive Task Scheduler (internal/pts) — into the
// closed-loop GFS system of Fig. 6.
package core

import (
	"github.com/sjtucitlab/gfs/internal/gde"
	"github.com/sjtucitlab/gfs/internal/pts"
	"github.com/sjtucitlab/gfs/internal/sched"
	"github.com/sjtucitlab/gfs/internal/simclock"
	"github.com/sjtucitlab/gfs/internal/sqa"
)

// Options configures a GFS instance. The zero value is Table 4's
// setting without an estimator, and so is every field left unset.
type Options struct {
	// PTS holds the scheduler's ablation switches.
	PTS pts.Config
	// SQA holds the quota allocator's guarantee duration.
	SQA sqa.Config
	// Estimator is a trained demand estimator. Nil disables
	// forecasting: the quota falls back to idle+spot capacity,
	// which effectively removes proactive management.
	Estimator *gde.Estimator
	// DisableEtaFeedback pins η = 1 (the GFS-d ablation).
	DisableEtaFeedback bool
}

// rampFraction bounds how fast spot usage may grow: per quota update,
// admissions may raise spot usage by at most this fraction of cluster
// capacity.
const rampFraction = 0.05

// DefaultOptions returns Table 4's settings (estimator left nil for
// the caller to supply).
func DefaultOptions() Options {
	return Options{PTS: pts.DefaultConfig(), SQA: sqa.DefaultConfig()}
}

// System bundles the scheduler and quota policy for the simulator.
type System struct {
	Scheduler *pts.Scheduler
	Quota     *Quota
}

// New assembles a GFS system.
func New(opts Options) *System {
	return &System{
		Scheduler: pts.New(opts.PTS),
		Quota: &Quota{
			est:         opts.Estimator,
			alloc:       sqa.New(opts.SQA),
			disableFeed: opts.DisableEtaFeedback,
			ramp:        rampFraction,
		},
	}
}

// Quota is the GFS spot quota policy: GDE forecasts feed SQA's
// inventory estimate, and the observed eviction rate and queuing
// delays feed back into η (the closed loop of Fig. 6).
//
// The quota itself refreshes at every update tick (300 s, Table 4):
// capacity, idle cards and the inventory bound are re-read each time.
// The GDE forecasts it subtracts refresh hourly, when the demand
// series they are computed from gain their next value; in between,
// every tick reads the stored forecasts. η moves at most once per
// guarantee window H: the eviction rate it reacts to is measured over
// the past H hours, so faster multiplicative updates compound against
// a sticky signal and drive the loop into oscillation.
type Quota struct {
	est         *gde.Estimator
	memo        gde.Memo
	forecasts   []sqa.OrgForecast
	alloc       *sqa.Allocator
	disableFeed bool
	// ramp is rampFraction outside tests.
	ramp       float64
	lastEtaAt  simclock.Time
	etaUpdated bool
}

// Allocator exposes the underlying SQA (for inspection in tests and
// reports).
func (q *Quota) Allocator() *sqa.Allocator { return q.alloc }

// CurrentEta implements sched.EtaReporter: QuotaUpdated events carry
// the live safety coefficient, so collectors can trace the Eq. 11
// feedback loop.
func (q *Quota) CurrentEta() float64 { return q.alloc.Eta() }

// Quota implements sched.QuotaPolicy.
func (q *Quota) Quota(ctx *sched.QuotaContext) float64 {
	if q.disableFeed {
		q.alloc.SetEta(1.0)
	} else {
		window := simclock.Duration(q.alloc.Config().H) * simclock.Hour
		if !q.etaUpdated || ctx.Now.Sub(q.lastEtaAt) >= window {
			q.alloc.UpdateEta(ctx.EvictionRate, ctx.MaxSpotQueue)
			q.lastEtaAt = ctx.Now
			q.etaUpdated = true
		}
	}
	capacity := ctx.Cluster.TotalGPUs("")
	idle := ctx.Cluster.IdleGPUs("")

	inventory := capacity // no estimator: everything idle is fair game
	if q.est != nil && q.est.Fitted() {
		q.forecasts = q.forecasts[:0]
		for _, f := range q.memo.Forecasts(q.est, ctx.OrgDemand, ctx.HourIndex) {
			q.forecasts = append(q.forecasts, sqa.OrgForecast{Mu: f.Mu, Sigma: f.Sigma})
		}
		inventory = q.alloc.Inventory(capacity, q.forecasts)
	}
	return q.alloc.Quota(inventory, idle, ctx.SpotGuaranteed)
}

// MaxAdmitPerPass implements sched.AdmissionLimiter: between quota
// updates, spot usage may grow by at most ramp·capacity (one task
// minimum, so large gang tasks cannot deadlock). Without the ramp, a
// backlog released after a quota dip floods the cluster in one
// scheduling pass and the next HP surge evicts the whole cohort.
func (q *Quota) MaxAdmitPerPass(capacity float64) float64 {
	return q.ramp * capacity
}
