package sched

import (
	"math/rand"

	"github.com/sjtucitlab/gfs/internal/simclock"
	"github.com/sjtucitlab/gfs/internal/timefeat"
)

// DiurnalProfile shapes time-of-day spot reclamation intensity: the
// fraction of held spot GPUs reclaimed per burst follows a smooth
// daily curve between Base (trough) and Peak (at Curve.PeakHour),
// optionally damped on weekends by the curve and scaled by a
// price-pressure multiplier. It is how the cluster-external spot
// market — which the forecasting layer tries to predict — enters the
// simulation.
type DiurnalProfile struct {
	// Curve is the daily activity shape (peak hour, width, weekend
	// damping).
	Curve timefeat.DiurnalCurve
	// Base is the reclaimed fraction at the trough, in [0,1).
	Base float64
	// Peak is the reclaimed fraction at the peak, in (Base, 1].
	Peak float64
	// Pressure multiplies the whole curve (e.g. a pricing.Table
	// Pressure value for the pool's GPU model); zero means 1.
	Pressure float64
}

// Intensity returns the reclaimed fraction at time t, clamped to
// [0,1].
func (p DiurnalProfile) Intensity(t simclock.Time) float64 {
	w := p.Curve.WeightAt(t)
	f := p.Base + float64((p.Peak-p.Base)*w)
	if p.Pressure > 0 {
		f *= p.Pressure
	}
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// DiurnalReclamation expands a profile into periodic OpReclaimSpot
// actions: one burst every interval over [start, end), each taking
// the profile's intensity at its firing time. Bursts whose intensity
// rounds to zero are elided. An interval ≤ 0 defaults to one hour.
func DiurnalReclamation(p DiurnalProfile, start, end simclock.Time, every simclock.Duration) []ScenarioAction {
	if every <= 0 {
		every = simclock.Hour
	}
	var out []ScenarioAction
	for t := start; t < end; t = t.Add(every) {
		f := p.Intensity(t)
		if f < 1e-6 {
			continue
		}
		out = append(out, ScenarioAction{At: t, Op: OpReclaimSpot, Fraction: f})
	}
	return out
}

// StormProfile parameterizes RandomStorms: a random schedule of
// correlated domain failures and spot reclamation bursts over a
// horizon, with exponential inter-storm gaps.
type StormProfile struct {
	// Horizon is the span storms may land in, from the epoch.
	Horizon simclock.Duration
	// MeanInterval is the mean gap between storms (exponential);
	// ≤ 0 defaults to 6 hours.
	MeanInterval simclock.Duration
	// Domains lists the failure domains storms may hit. Empty
	// disables failure storms, leaving only reclamation bursts.
	Domains []string
	// FailureProb is the probability a storm is a correlated domain
	// failure rather than a reclamation burst, in [0,1].
	FailureProb float64
	// CascadeP spreads each failure storm to sibling domains with
	// this probability (see ScenarioAction.CascadeP), each hop 5
	// minutes after the last.
	CascadeP float64
	// RestoreAfter brings a failed domain (and, when cascading, its
	// blast radius: the parent for rack-level domains, every listed
	// domain for top-level ones) back this long after the hit; ≤ 0
	// means failed domains stay dark. With a cascade the restore is
	// additionally deferred past the deepest possible spread hop, so
	// late-landing sibling failures cannot outlive their restore.
	// Cascaded failures landing on domains outside Domains' coverage
	// are not restored.
	RestoreAfter simclock.Duration
}

// A storm's cascade hops stormCascadeDelay apart, and a reclamation
// burst takes a fraction drawn uniformly from [minReclaim, maxReclaim).
const (
	stormCascadeDelay = 5 * simclock.Minute
	minReclaim        = 0.1
	maxReclaim        = 0.5
)

// RandomStorms draws a storm schedule from rng. The output is a pure
// function of the profile and the generator state, so a seeded rng
// gives byte-for-byte identical scenarios — and therefore identical
// RunBatch results at any worker count. Cascade draws made mid-run
// are seeded from the same stream.
func RandomStorms(rng *rand.Rand, p StormProfile) []ScenarioAction {
	mean := p.MeanInterval
	if mean <= 0 {
		mean = 6 * simclock.Hour
	}
	var out []ScenarioAction
	t := simclock.Time(0)
	for {
		gap := simclock.Duration(rng.ExpFloat64() * float64(mean))
		if gap < simclock.Minute {
			gap = simclock.Minute
		}
		t = t.Add(gap)
		if t >= simclock.Time(p.Horizon) {
			return out
		}
		if len(p.Domains) > 0 && rng.Float64() < p.FailureProb {
			dom := p.Domains[rng.Intn(len(p.Domains))]
			out = append(out, ScenarioAction{
				At: t, Op: OpDomainDown, Domain: dom,
				CascadeP: p.CascadeP, CascadeDelay: stormCascadeDelay,
				Seed: rng.Int63(),
			})
			if p.RestoreAfter > 0 {
				// Defer past the deepest possible cascade hop so a
				// spread failure cannot land after its restore.
				restoreAt := t.Add(cascadeSettle(p.CascadeP, stormCascadeDelay)).Add(p.RestoreAfter)
				// Without a cascade only the hit domain needs
				// restoring; with one, restore the parent so the
				// racks the failure spread to come back as well
				// (restoring an up node is a no-op). The zone-wide
				// restore can truncate an overlapping storm's
				// outage in the same zone — acceptable for a storm
				// generator, where overlapping same-zone outages
				// merging into one is realistic behavior.
				restore := dom
				if p.CascadeP > 0 {
					restore = domainParent(dom)
				}
				out = append(out, ScenarioAction{At: restoreAt, Op: OpDomainUp, Domain: restore})
				if p.CascadeP > 0 && restore == dom {
					// Top-level domain: the cascade crosses into
					// sibling zones, which domainParent cannot
					// cover — restore every listed domain
					// (restoring an up domain is a no-op).
					for _, d := range p.Domains {
						if d != dom {
							out = append(out, ScenarioAction{At: restoreAt, Op: OpDomainUp, Domain: d})
						}
					}
				}
			}
		} else {
			f := minReclaim + float64(rng.Float64()*(maxReclaim-minReclaim))
			out = append(out, ScenarioAction{At: t, Op: OpReclaimSpot, Fraction: f})
		}
	}
}

// cascadeSettle returns how long a cascade starting at probability p
// can keep spreading: one delay per generation until the per-hop
// probability (halved each hop, zeroed below 1% — mirroring
// Simulator.cascadeFailure) dies out.
func cascadeSettle(p float64, delay simclock.Duration) simclock.Duration {
	hops := 0
	for ; p >= 0.01; p *= 0.5 {
		hops++
	}
	return simclock.Duration(hops) * delay
}

// domainParent returns the domain one level up ("zone-0/rack-1" →
// "zone-0"), or the domain itself at the top level. NodesInDomain
// treats a parent as covering all its children, so restoring the
// parent restores the blast radius of a rack-level cascade (which
// spreads only within the zone); top-level cascades that cross zones
// need explicit restores.
func domainParent(domain string) string {
	for i := len(domain) - 1; i >= 0; i-- {
		if domain[i] == '/' {
			return domain[:i]
		}
	}
	return domain
}
