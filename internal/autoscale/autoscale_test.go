package autoscale

import (
	"testing"

	"github.com/sjtucitlab/gfs/internal/cluster"
	"github.com/sjtucitlab/gfs/internal/forecast"
	"github.com/sjtucitlab/gfs/internal/gde"
	"github.com/sjtucitlab/gfs/internal/org"
	"github.com/sjtucitlab/gfs/internal/pricing"
	"github.com/sjtucitlab/gfs/internal/sched"
	"github.com/sjtucitlab/gfs/internal/simclock"
	"github.com/sjtucitlab/gfs/internal/task"
	"github.com/sjtucitlab/gfs/internal/timefeat"
)

const tick = 5 * simclock.Minute

// fleet applies a policy's plans to a cluster the way the simulator's
// event path does — a provision lands as a tiered pool once its lead
// has passed, a retired node is cordoned and leaves capacity — so
// Policy.Plan can be driven tick by tick without an engine run.
type fleet struct {
	cl      *cluster.Cluster
	pending []delivery
}

type delivery struct {
	at   simclock.Time
	pool cluster.Pool
}

// newFleet starts from owned untiered nodes, which the policy never
// counts against its budget and never retires.
func newFleet(owned int) *fleet {
	return &fleet{cl: cluster.NewHomogeneous("A100", owned, 8)}
}

// step delivers what is due at now, asks the policy for this tick's
// plan, applies it and returns it.
func (f *fleet) step(p *Policy, now simclock.Time, pendingGPUs float64, demand map[string][]float64) sched.AutoscalePlan {
	kept := f.pending[:0]
	for _, d := range f.pending {
		if d.at <= now {
			f.cl.AddPool(d.pool)
		} else {
			kept = append(kept, d)
		}
	}
	f.pending = kept
	plan := p.Plan(&sched.AutoscaleContext{
		Now: now, Cluster: f.cl, OrgDemand: demand,
		HourIndex: int(now / simclock.Time(simclock.Hour)), PendingGPUs: pendingGPUs,
	})
	for _, pr := range plan.Provisions {
		f.pending = append(f.pending, delivery{at: now.Add(pr.Lead), pool: pr.Pool})
	}
	for _, id := range plan.Retire {
		n := f.cl.Node(id)
		n.SetCordoned(true)
		n.SetDown(true)
	}
	return plan
}

// tiered counts live autoscaled nodes per tier, and in flight.
func (f *fleet) tiered() (live, inFlight map[string]int) {
	live, inFlight = map[string]int{}, map[string]int{}
	for _, n := range f.cl.Nodes() {
		if n.Tier != "" && n.Schedulable() {
			live[n.Tier]++
		}
	}
	for _, d := range f.pending {
		inFlight[d.pool.Tier] += d.pool.Nodes
	}
	return live, inFlight
}

func provisioned(plan sched.AutoscalePlan) int {
	n := 0
	for _, pr := range plan.Provisions {
		n += pr.Pool.Nodes
	}
	return n
}

// TestPlanMonotoneInBudget: on one context, a larger node budget never
// buys fewer nodes, and no budget is overspent.
func TestPlanMonotoneInBudget(t *testing.T) {
	for _, pendingGPUs := range []float64{0, 8, 70, 400, 4000} {
		prev := 0
		for _, budget := range []int{1, 2, 3, 5, 8, 13, 40, 200} {
			p := &Policy{Mode: ModeReactive, MaxNodes: budget, Step: 1 << 20}
			got := provisioned(newFleet(2).step(p, 0, pendingGPUs, nil))
			if got > budget {
				t.Fatalf("demand %g, budget %d: plan buys %d nodes", pendingGPUs, budget, got)
			}
			if got < prev {
				t.Fatalf("demand %g: budget %d buys %d nodes, a smaller budget bought %d", pendingGPUs, budget, got, prev)
			}
			prev = got
		}
	}
}

// TestTierCapsHold: over a sustained shortage no tier ever holds more
// nodes, live plus in flight, than its quota, the total stays inside
// MaxNodes, and the ladder fills in its listed order.
func TestTierCapsHold(t *testing.T) {
	for _, tc := range []struct {
		name     string
		maxNodes int
		tiers    []tierQuota
	}{
		{"default ladder", 12, nil},
		{"tight spot", 9, []tierQuota{{pricing.TierSpot, 2}, {pricing.TierOnDemand, 3}, {pricing.TierReserved, 100}}},
		{"total binds first", 4, []tierQuota{{pricing.TierSpot, 3}, {pricing.TierOnDemand, 3}}},
		{"ladder smaller than total", 20, []tierQuota{{pricing.TierSpot, 1}, {pricing.TierOnDemand, 2}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := &Policy{Mode: ModeReactive, MaxNodes: tc.maxNodes, tiers: tc.tiers, Step: 3}
			f := newFleet(1)
			var order []string
			for i := 0; i < 40; i++ {
				plan := f.step(p, simclock.Time(i)*simclock.Time(tick), 10000, nil)
				for _, pr := range plan.Provisions {
					order = append(order, pr.Pool.Tier)
				}
				live, inFlight := f.tiered()
				total := 0
				for _, tq := range p.tiers {
					held := live[tq.tier] + inFlight[tq.tier]
					if held > tq.maxNodes {
						t.Fatalf("tick %d: tier %s holds %d nodes, quota %d", i, tq.tier, held, tq.maxNodes)
					}
					total += held
				}
				if total > tc.maxNodes {
					t.Fatalf("tick %d: %d autoscaled nodes, budget %d", i, total, tc.maxNodes)
				}
			}
			rank := map[string]int{}
			for i, tq := range p.tiers {
				rank[tq.tier] = i
			}
			for i := 1; i < len(order); i++ {
				if rank[order[i]] < rank[order[i-1]] {
					t.Fatalf("tiers bought out of ladder order: %v", order)
				}
			}
			if len(order) == 0 {
				t.Fatal("a 10,000-GPU shortage bought nothing")
			}
		})
	}
}

// TestNoFlapInsideIdleAfter: a demand dip shorter than the idle
// grace retires nothing and so re-buys nothing when demand returns; a
// dip that outlasts it retires nodes, none before it has been idle for
// the whole grace.
func TestNoFlapInsideIdleAfter(t *testing.T) {
	for _, tc := range []struct {
		name       string
		dipTicks   int
		wantRetire bool
	}{
		{"dip shorter than the grace", 5, false},
		{"dip one tick short of the grace", 6, false},
		{"dip outlasts the grace", 12, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Utilization target 1: capacity is bought to fit demand
			// exactly, so no node sits idle while demand holds.
			p := &Policy{Mode: ModeReactive, MaxNodes: 8, target: 1}
			f := newFleet(1)
			now := simclock.Time(0)
			next := func(pendingGPUs float64) sched.AutoscalePlan {
				plan := f.step(p, now, pendingGPUs, nil)
				now = now.Add(tick)
				return plan
			}
			// Shortage: buy capacity and wait for it to land.
			for i := 0; i < 8; i++ {
				next(40)
			}
			live, _ := f.tiered()
			bought := live[pricing.TierSpot] + live[pricing.TierOnDemand] + live[pricing.TierReserved]
			if bought != 4 {
				t.Fatalf("a 32-GPU gap bought %d nodes, want 4 (capacity in flight is not re-bought)", bought)
			}
			// The queued work starts: one whole-node HP task per node,
			// so every node is busy.
			var tasks []*task.Task
			for _, n := range f.cl.Nodes() {
				tk := task.New(len(tasks)+1, task.HP, 1, 8, simclock.Hour)
				if err := n.PlacePod(tk); err != nil {
					t.Fatal(err)
				}
				tasks = append(tasks, tk)
			}
			if plan := next(0); len(plan.Retire)+provisioned(plan) != 0 {
				t.Fatalf("steady state moved capacity: %+v", plan)
			}
			// The dip: every task finishes.
			for _, n := range f.cl.Nodes() {
				for _, tk := range tasks {
					n.ReleaseTask(tk)
				}
			}
			idleFrom := now
			retired := 0
			for i := 0; i < tc.dipTicks; i++ {
				plan := next(0)
				if len(plan.Retire) > 0 && now.Add(-tick).Sub(idleFrom) < idleAfter {
					t.Fatalf("retired %v after %v idle, grace %v", plan.Retire, now.Add(-tick).Sub(idleFrom), idleAfter)
				}
				retired += len(plan.Retire)
			}
			if (retired > 0) != tc.wantRetire {
				t.Fatalf("retired %d nodes over a %d-tick dip, want retirement: %v", retired, tc.dipTicks, tc.wantRetire)
			}
			// Demand returns at its old level.
			rebought := 0
			for i := 0; i < 4; i++ {
				rebought += provisioned(next(40))
			}
			if !tc.wantRetire && rebought != 0 {
				t.Fatalf("re-bought %d nodes after a dip that retired none", rebought)
			}
		})
	}
}

// TestPredictiveAtLeastReactive: on the same context the predictive
// plan buys at least what the reactive one does — the forecast's
// upper quantile can only raise the capacity target (the pre-warm
// rule: buy ahead of demand, never behind it) — and buys strictly
// more when history says demand is about to return.
func TestPredictiveAtLeastReactive(t *testing.T) {
	flat := func(v float64, hours int) []float64 {
		s := make([]float64, hours)
		for i := range s {
			s[i] = v
		}
		return s
	}
	// Two days of a daily spike; the last hour on record is quiet and
	// the hour about to start spiked yesterday.
	spike := flat(4, 48)
	spike[0], spike[24] = 90, 90
	for _, tc := range []struct {
		name        string
		pendingGPUs float64
		demand      map[string][]float64
		wantMore    bool
	}{
		{"no history", 30, nil, false},
		{"quiet history, queue drives", 60, map[string][]float64{"a": flat(2, 48), "b": flat(1, 30)}, false},
		{"short history", 0, map[string][]float64{"a": {3, 5, 4}}, false},
		{"spike due, nothing queued", 0, map[string][]float64{"a": spike, "b": flat(1, 48)}, true},
		{"spike due, small queue", 8, map[string][]float64{"a": spike}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			buy := func(mode Mode) int {
				p := &Policy{Mode: mode, MaxNodes: 64, Step: 64}
				return provisioned(newFleet(2).step(p, simclock.Time(48*simclock.Hour), tc.pendingGPUs, tc.demand))
			}
			reactive, predictive := buy(ModeReactive), buy(ModePredictive)
			if predictive < reactive {
				t.Fatalf("predictive buys %d nodes, reactive %d", predictive, reactive)
			}
			if tc.wantMore && predictive <= reactive {
				t.Fatalf("predictive buys %d nodes with a spike due, no more than reactive's %d", predictive, reactive)
			}
		})
	}
}

// recorder keeps every example the estimator asks its model to
// forecast.
type recorder struct {
	forecast.Distributional
	calls []forecast.Example
}

func (r *recorder) PredictDist(ex forecast.Example) (mu, sigma []float64) {
	r.calls = append(r.calls, ex)
	return r.Distributional.PredictDist(ex)
}

// TestPredictiveForecastWindow: with a fitted estimator at a
// non-default 48 h window, every forecast's history ends at the tick's
// hour (StartHour is the hour of History[0]), and the policy asks the
// model once per organization per hour however many ticks the hour
// holds.
func TestPredictiveForecastWindow(t *testing.T) {
	const history = 48
	rec := &recorder{Distributional: forecast.NaivePeak{}}
	est := gde.New(gde.Config{History: history, Horizon: 4, Model: rec})
	panel := org.Panel(org.Presets(), timefeat.NewCalendar(), 0, 24*7, 5)
	if err := est.Train(panel, 0); err != nil {
		t.Fatal(err)
	}
	demand := map[string][]float64{}
	for name, s := range panel {
		demand[name] = append([]float64(nil), s[:100]...)
	}
	p := &Policy{Mode: ModePredictive, Estimator: est}
	f := newFleet(2)
	start := simclock.Time(100 * simclock.Hour)
	for now := start; now < start+2*simclock.Time(simclock.Hour); now = now.Add(tick) {
		if now > start && now%simclock.Time(simclock.Hour) == 0 {
			for name, s := range demand {
				demand[name] = append(s, 0)
			}
		}
		f.step(p, now, 0, demand)
	}
	if want := 2 * len(demand); len(rec.calls) != want {
		t.Fatalf("%d forecasts over two hours of %d orgs, want %d", len(rec.calls), len(demand), want)
	}
	for i, ex := range rec.calls {
		if hour := 100 + i/len(demand); ex.StartHour+len(ex.History) != hour {
			t.Fatalf("hour %d: forecast starts at %d with %d hours of history", hour, ex.StartHour, len(ex.History))
		}
	}
}
