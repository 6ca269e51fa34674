package gde

import "sort"

// Forecast is one organization's demand distribution over the
// estimator's horizon.
type Forecast struct {
	// Org names the organization.
	Org string
	// Mu and Sigma are the per-step means and standard deviations.
	Mu, Sigma []float64

	series []float64 // the demand series Mu and Sigma were computed from
}

// Memo stores one run's forecasts. The simulator appends to each
// organization's hourly demand series only when the hour rolls over,
// while the quota policy and the autoscaler read the forecast at every
// update tick, so Forecasts runs the model once per organization per
// hour and serves the stored result until the hour, the estimator, the
// organization set or a series moves.
//
// The key relies on the series only ever growing by appending, as the
// simulator's do: a series is matched by its backing array and length,
// so a new run's freshly allocated series always misses, even from the
// same hour and length. A Memo is per-run state, owned by one consumer
// and not safe for concurrent use; the Estimator it calls is the
// read-only part batch workers share. The zero value is ready.
type Memo struct {
	est  *Estimator
	hour int
	fcs  []Forecast
	orgs []string
}

// Forecasts returns est's forecast for every organization in demand,
// in sorted name order, for the hour hourIndex (the series' latest
// value is the hour before it). The returned slice is valid until the
// next call.
func (m *Memo) Forecasts(est *Estimator, demand map[string][]float64, hourIndex int) []Forecast {
	if m.fresh(est, demand, hourIndex) {
		return m.fcs
	}
	m.orgs = m.orgs[:0]
	for org := range demand {
		m.orgs = append(m.orgs, org)
	}
	sort.Strings(m.orgs)
	m.est, m.hour, m.fcs = est, hourIndex, m.fcs[:0]
	startHour := hourIndex - est.History()
	for _, org := range m.orgs {
		series := demand[org]
		mu, sigma := est.Forecast(org, series, startHour)
		m.fcs = append(m.fcs, Forecast{Org: org, Mu: mu, Sigma: sigma, series: series})
	}
	return m.fcs
}

// fresh reports whether the stored forecasts were computed by est at
// hourIndex from exactly the series in demand.
func (m *Memo) fresh(est *Estimator, demand map[string][]float64, hourIndex int) bool {
	if m.est != est || m.hour != hourIndex || len(m.fcs) != len(demand) {
		return false
	}
	for _, f := range m.fcs {
		s, ok := demand[f.Org]
		if !ok || len(s) != len(f.series) || (len(s) > 0 && &s[0] != &f.series[0]) {
			return false
		}
	}
	return true
}
