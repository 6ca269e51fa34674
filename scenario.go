package gfs

import (
	"math/rand"

	"github.com/sjtucitlab/gfs/internal/pricing"
	"github.com/sjtucitlab/gfs/internal/sched"
	"github.com/sjtucitlab/gfs/internal/timefeat"
)

// Scenario is a timed script of cluster mutations fed into a
// simulation's event queue: correlated (and cascading) failure-domain
// outages and their restores, and spot reclamation storms that follow
// a diurnal profile. Scenarios are plain data — build one with the
// fluent methods or the generators (RandomStorms), and attach it via
// WithScenario, which may be repeated to combine scenarios:
//
//	cl := gfs.NewCluster("A100", 16, 8)
//	cl.AssignDomains(2, 4)
//	sc := gfs.NewScenario().
//		FailDomain(6*gfs.Hour, "zone-0/rack-1").
//		RestoreDomain(12*gfs.Hour, "zone-0/rack-1").
//		DiurnalReclamation(0, 24*gfs.Hour, gfs.Hour, gfs.DefaultDiurnalProfile("A100"))
//	res := gfs.NewEngine(cl, gfs.WithScenario(sc)).Run(tasks)
//
// Times are simulated durations from the trace epoch. Actions sharing
// a timestamp apply in the order they were added.
type Scenario struct {
	actions []sched.ScenarioAction
}

// NewScenario returns an empty scenario.
func NewScenario() *Scenario { return &Scenario{} }

func (s *Scenario) add(a sched.ScenarioAction) *Scenario {
	s.actions = append(s.actions, a)
	return s
}

// FailDomain fails every node in a failure domain atomically at time
// at — a correlated rack or zone outage: every task with pods on a
// failed node is killed and requeued, and the nodes leave the
// schedulable pool until a RestoreDomain. Domains are assigned with
// Cluster.AssignDomains (or by setting Node.Domain directly); a
// parent domain ("zone-0") covers all its children ("zone-0/rack-1").
func (s *Scenario) FailDomain(at Duration, domain string) *Scenario {
	return s.add(sched.ScenarioAction{At: Time(0).Add(at), Op: sched.OpDomainDown, Domain: domain})
}

// CascadeFailure fails domain at time at and spreads the failure to
// each sibling domain independently with probability p after delay,
// halving p per hop so cascades die out. seed drives the spread draws
// deterministically: one run of a scenario is byte-for-byte
// reproducible at any RunBatch worker count.
func (s *Scenario) CascadeFailure(at Duration, domain string, p float64, delay Duration, seed int64) *Scenario {
	return s.add(sched.ScenarioAction{
		At: Time(0).Add(at), Op: sched.OpDomainDown, Domain: domain,
		CascadeP: p, CascadeDelay: delay, Seed: seed,
	})
}

// RestoreDomain returns every failed node in a domain to service at
// time at.
func (s *Scenario) RestoreDomain(at Duration, domain string) *Scenario {
	return s.add(sched.ScenarioAction{At: Time(0).Add(at), Op: sched.OpDomainUp, Domain: domain})
}

// DiurnalReclamation appends a reclamation storm: one spot
// reclamation burst every interval over [start, end), whose fraction
// follows the profile's daily curve — peaking at the configured hour,
// damped on weekends/holidays, scaled by price pressure. It is how
// the diurnal availability patterns the forecasting layer predicts
// enter an end-to-end simulation.
func (s *Scenario) DiurnalReclamation(start, end Duration, every Duration, p DiurnalProfile) *Scenario {
	for _, a := range sched.DiurnalReclamation(p, Time(0).Add(start), Time(0).Add(end), every) {
		s.add(a)
	}
	return s
}

// sorted returns the scenario's mutations sorted by time, preserving
// insertion order within a timestamp.
func (s *Scenario) sorted() []sched.ScenarioAction {
	return sched.SortActions(append([]sched.ScenarioAction(nil), s.actions...))
}

// Len returns the number of actions.
func (s *Scenario) Len() int { return len(s.actions) }

// Diurnal and storm profiles, re-exported from the simulator core.
type (
	// DiurnalProfile shapes time-of-day spot reclamation intensity
	// between a base and a peak fraction.
	DiurnalProfile = sched.DiurnalProfile
	// StormProfile parameterizes RandomStorms.
	StormProfile = sched.StormProfile
	// DiurnalCurve is a smooth daily activity shape peaked at a
	// configured hour.
	DiurnalCurve = timefeat.DiurnalCurve
)

// DefaultDiurnalProfile returns a business-hours reclamation profile
// for the given GPU model: intensity peaks at 14:00, troughs
// overnight, drops to 40% on weekends, and is scaled by the model's
// list-price pressure (pricier pools see more reclamation). Tune the
// returned profile as needed.
func DefaultDiurnalProfile(model string) DiurnalProfile {
	return DiurnalProfile{
		Curve: DiurnalCurve{PeakHour: 14, Width: 4, WeekendFactor: 0.4},
		Base:  0.02,
		Peak:  0.25,
		// Price pressure ties reclamation to the market value of the
		// pool's capacity (see internal/pricing).
		Pressure: pricing.DefaultTable().Pressure(model),
	}
}

// RandomStorms draws a random schedule of correlated domain failures
// and spot reclamation bursts from rng (see StormProfile). The result
// is a pure function of the profile and the generator state, so a
// seeded rng yields byte-for-byte identical scenarios — and identical
// RunBatch results at any worker count.
func RandomStorms(rng *rand.Rand, p StormProfile) *Scenario {
	out := NewScenario()
	out.actions = sched.RandomStorms(rng, p)
	return out
}
