package gfs

import (
	"github.com/sjtucitlab/gfs/internal/autoscale"
	"github.com/sjtucitlab/gfs/internal/sched"
)

// Autoscaling surface, re-exported from the simulator core and the
// built-in policy package.
type (
	// Autoscaler decides capacity changes at each quota tick; see
	// WithAutoscaler. AutoscalePolicy is the built-in implementation.
	Autoscaler = sched.Autoscaler
	// AutoscaleContext is the per-tick view handed to an Autoscaler.
	AutoscaleContext = sched.AutoscaleContext
	// AutoscalePlan is an Autoscaler's decision for one tick:
	// provisions (with pre-warm leads) and node retirements.
	AutoscalePlan = sched.AutoscalePlan
	// Provision asks for one pool of fresh nodes after a pre-warm
	// lead.
	Provision = sched.Provision
	// AutoscaleMode selects how an AutoscalePolicy estimates upcoming
	// demand (AutoscaleReactive or AutoscalePredictive).
	AutoscaleMode = autoscale.Mode
	// AutoscalePolicy is the built-in autoscaler: reactive or
	// predictive (forecast-driven) capacity over multi-tier
	// spot → on-demand → reserved pools, with confidence-thresholded
	// scale-ups, diurnal pre-warm leads, and idle scale-down with
	// grace. Hand a fresh policy to each run — it keeps per-run
	// state.
	AutoscalePolicy = autoscale.Policy
)

// Autoscale policy modes.
const (
	// AutoscaleReactive sizes capacity from observed demand only.
	AutoscaleReactive = autoscale.ModeReactive
	// AutoscalePredictive provisions toward the per-org demand
	// forecast's upper confidence quantile, so capacity lands before
	// the demand does.
	AutoscalePredictive = autoscale.ModePredictive
)

// NamedAutoscaler resolves a policy name ("predictive" or
// "reactive") to a fresh built-in policy — the names the gfsim
// -autoscale flag and the run spec's autoscale field accept.
func NamedAutoscaler(name string) (*AutoscalePolicy, error) {
	mode, err := autoscale.ParseMode(name)
	if err != nil {
		return nil, err
	}
	return &AutoscalePolicy{Mode: mode}, nil
}

// WithAutoscaler installs an autoscaler: it is consulted at every
// quota tick and may provision new pools (delivered after a pre-warm
// lead through the same event path scenario actions use) and retire
// nodes, which drain rather than strand their tasks. Capacity churn
// reaches observers as NodeProvisioned / NodeRetired events.
func WithAutoscaler(a Autoscaler) Option {
	return func(e *Engine) { e.cfg.Autoscaler = a }
}
