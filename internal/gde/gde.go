// Package gde implements the GPU Demand Estimator (§3.2): it trains
// one distributional forecaster over the per-organization demand
// panel and serves rolling probabilistic forecasts of HP demand,
// which the Spot Quota Allocator converts into inventory bounds.
package gde

import (
	"fmt"
	"sort"

	"github.com/sjtucitlab/gfs/internal/forecast"
)

// Config parameterizes the estimator.
type Config struct {
	// History is L, the input window in hours.
	History int
	// Horizon is H, the forecast span in hours (at least the
	// largest guarantee duration SQA will ask for). It is also the
	// stride between training windows.
	Horizon int
	// Model is the underlying forecaster; nil defaults to
	// OrgLinear with experiment settings.
	Model forecast.Distributional
}

// Estimator serves per-organization demand distributions.
type Estimator struct {
	cfg    Config
	model  forecast.Distributional
	orgIDs map[string]forecast.OrgMeta
	fitted bool
}

// New creates an estimator.
func New(cfg Config) *Estimator {
	if cfg.Model == nil {
		cfg.Model = forecast.NewOrgLinear(forecast.DefaultOrgLinearConfig())
	}
	return &Estimator{cfg: cfg, model: cfg.Model, orgIDs: make(map[string]forecast.OrgMeta)}
}

// History returns the configured input window.
func (e *Estimator) History() int { return e.cfg.History }

// Train fits the model on an aligned panel of per-organization hourly
// demand series beginning at startHour. Organization ids are assigned
// in sorted name order for determinism.
func (e *Estimator) Train(panel map[string][]float64, startHour int) error {
	if len(panel) == 0 {
		return fmt.Errorf("gde: empty panel")
	}
	names := make([]string, 0, len(panel))
	for name := range panel {
		names = append(names, name)
	}
	sort.Strings(names)
	var examples []forecast.Example
	for i, name := range names {
		meta := forecast.OrgMeta{OrgID: i, ClusterID: 0, ModelID: 0}
		e.orgIDs[name] = meta
		exs := forecast.Windows(panel[name], startHour, e.cfg.History, e.cfg.Horizon, e.cfg.Horizon, meta)
		examples = append(examples, exs...)
	}
	if len(examples) == 0 {
		return fmt.Errorf("gde: panel shorter than history+horizon (%d+%d)",
			e.cfg.History, e.cfg.Horizon)
	}
	if err := e.model.Fit(examples); err != nil {
		return fmt.Errorf("gde: fit: %w", err)
	}
	e.fitted = true
	return nil
}

// Fitted reports whether Train has succeeded.
func (e *Estimator) Fitted() bool { return e.fitted }

// meta resolves an organization name. It only reads: a trained
// estimator is shared across batch workers. Every name unseen in
// training gets the first id past the trained ones (the model falls
// back to the embedding of the clamped id).
func (e *Estimator) meta(org string) forecast.OrgMeta {
	if m, ok := e.orgIDs[org]; ok {
		return m
	}
	return forecast.OrgMeta{OrgID: len(e.orgIDs)}
}

// Forecast returns the demand distribution for the next Horizon hours
// given the org's trailing history (latest value last). The history
// is padded or truncated to the configured window.
func (e *Estimator) Forecast(org string, history []float64, startHour int) (mu, sigma []float64) {
	hist := e.fitHistory(history)
	ex := forecast.Example{
		History:   hist,
		StartHour: startHour,
		Future:    make([]float64, e.cfg.Horizon),
		Org:       e.meta(org),
	}
	return e.model.PredictDist(ex)
}

// fitHistory left-pads (with the first value) or truncates history to
// exactly L entries.
func (e *Estimator) fitHistory(history []float64) []float64 {
	l := e.cfg.History
	if len(history) >= l {
		return history[len(history)-l:]
	}
	out := make([]float64, l)
	pad := l - len(history)
	first := 0.0
	if len(history) > 0 {
		first = history[0]
	}
	for i := 0; i < pad; i++ {
		out[i] = first
	}
	copy(out[pad:], history)
	return out
}
