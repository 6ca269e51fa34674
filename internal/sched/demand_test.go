package sched

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/sjtucitlab/gfs/internal/cluster"
	"github.com/sjtucitlab/gfs/internal/simclock"
	"github.com/sjtucitlab/gfs/internal/task"
	"github.com/sjtucitlab/gfs/internal/trace"
)

// demandOracle is the demand view's reference definition, kept test
// only: at every quota tick, the per-org sum of TotalGPUs over the HP
// tasks of order() that are unfinished, not migrated away, and running
// or submitted by now, folded into hourly averages exactly as
// recordDemand folds them. As a quota policy it sees every tick right
// after recordDemand and compares its series with the simulator's,
// bit for bit.
type demandOracle struct {
	sim *simulator
	// order returns the tasks in the order the sum runs over; nil
	// means s.tasks.
	order    func(s *simulator) []*task.Task
	calls    int
	lastHour int
	samples  int
	accum    map[string]float64
	demand   map[string][]float64
	err      error
}

func newDemandOracle(initial map[string][]float64) *demandOracle {
	o := &demandOracle{lastHour: -1, accum: make(map[string]float64), demand: make(map[string][]float64)}
	for org, series := range initial {
		o.demand[org] = append([]float64(nil), series...)
	}
	return o
}

// Quota implements QuotaPolicy. Its first call is the initial quota
// update, which precedes every tick.
func (o *demandOracle) Quota(ctx *QuotaContext) float64 {
	if o.calls++; o.calls == 1 || o.err != nil {
		return math.Inf(1)
	}
	if hour := ctx.HourIndex; hour != o.lastHour {
		if o.lastHour >= 0 && o.samples > 0 {
			n := float64(o.samples)
			for org, sum := range o.accum {
				o.demand[org] = append(o.demand[org], sum/n)
			}
			for org, series := range o.demand {
				if _, touched := o.accum[org]; !touched {
					o.demand[org] = append(series, 0)
				}
			}
		}
		o.lastHour = hour
		clear(o.accum)
		o.samples = 0
	}
	tasks := o.sim.tasks
	if o.order != nil {
		tasks = o.order(o.sim)
	}
	for _, tk := range tasks {
		if tk.Type != task.HP || tk.State == task.Finished || o.sim.migrated[tk.ID] {
			continue
		}
		if tk.State == task.Running || tk.Submit <= ctx.Now {
			o.accum[tk.Org] += tk.TotalGPUs()
		}
	}
	o.samples++
	o.err = sameSeries(ctx.Now, o.demand, ctx.OrgDemand)
	return math.Inf(1)
}

// sameSeries reports the first difference between two demand panels,
// comparing values bit for bit.
func sameSeries(now simclock.Time, want, got map[string][]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("t=%d: %d org series, oracle has %d", now, len(got), len(want))
	}
	for org, w := range want {
		g, ok := got[org]
		if !ok || len(g) != len(w) {
			return fmt.Errorf("t=%d: org %q series length %d, oracle %d", now, org, len(g), len(w))
		}
		for i := range w {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				return fmt.Errorf("t=%d: org %q hour %d = %v, oracle %v", now, org, i, g[i], w[i])
			}
		}
	}
	return nil
}

// Demand-view world modes.
const (
	demandSorted    = iota // Submit-sorted preload into one simulator
	demandStreamed         // the same trace streamed from a source
	demandFederated        // routed over two members with spillover
	demandUnsorted         // a shuffled preload into one simulator
	demandModes
)

// demandFractions are the HP pod sizes: fractional ones make the
// summation order observable in the bits.
var demandFractions = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1, 2, 4}

// runDemandWorld draws a trace, node failures and an initial demand
// panel from seed and runs them through the mode's path with a demand
// oracle on every member. It returns how many migrants were delivered
// back to a member they had left.
func runDemandWorld(seed int64, mode int) (returns int, err error) {
	rng := rand.New(rand.NewSource(seed))
	orgs := []string{"a", "b", "c", "d"}
	n := 20 + rng.Intn(40)
	tasks := make([]*task.Task, n)
	at := simclock.Time(0)
	for i := range tasks {
		at = at.Add(simclock.Duration(rng.Intn(int(20 * simclock.Minute))))
		typ, g := task.Spot, float64(1+rng.Intn(4))
		if rng.Intn(3) > 0 {
			typ, g = task.HP, demandFractions[rng.Intn(len(demandFractions))]
		}
		tk := mkTask(i+1, typ, 1+rng.Intn(2), g, simclock.Duration(10+rng.Intn(170))*simclock.Minute, at)
		tk.Org = orgs[rng.Intn(len(orgs))]
		tasks[i] = tk
	}
	if mode == demandUnsorted {
		rng.Shuffle(len(tasks), func(i, j int) { tasks[i], tasks[j] = tasks[j], tasks[i] })
	}
	// An initial panel with an org no task uses and an empty series.
	initial := map[string][]float64{"a": {1.5, 2.5}, "z": nil}
	members := 1
	if mode == demandFederated {
		members = 2
	}
	var oracles []*demandOracle
	cfg := FedConfig{Route: RouteLeastLoaded{}, Spill: SpillLeastLoaded{}}
	for m := range members {
		mc := SimConfig{Cluster: oneNodeRacks(cluster.NewHomogeneous("A100", 2+rng.Intn(3), 8)), Scheduler: &firstFit{}}
		mc.InitialOrgDemand = initial
		o := newDemandOracle(initial)
		if mode == demandUnsorted {
			o.order = func(s *simulator) []*task.Task {
				return slices.SortedStableFunc(slices.Values(s.tasks), func(a, b *task.Task) int {
					return cmp.Compare(a.Submit, b.Submit)
				})
			}
		}
		mc.Quota = o
		for range 1 + rng.Intn(4) {
			down := simclock.Time(rng.Intn(int(8 * simclock.Hour)))
			id := rng.Intn(2)
			mc.Scenario = append(mc.Scenario,
				rackDown(down, id),
				rackUp(down.Add(simclock.Duration(1+rng.Intn(90))*simclock.Minute), id))
		}
		oracles = append(oracles, o)
		cfg.Members = append(cfg.Members, FedMember{Name: fmt.Sprint("m", m), Cfg: mc})
	}
	if mode == demandFederated {
		left := map[int]map[string]bool{} // task ID → members it left
		cfg.Observers = []Observer{ObserverFunc(func(e Event) {
			if e.Kind != TaskMigrated {
				return
			}
			if left[e.Task.ID][e.Target] {
				returns++
			}
			if left[e.Task.ID] == nil {
				left[e.Task.ID] = map[string]bool{}
			}
			left[e.Task.ID][e.Member] = true
		})}
	}
	preload, src := tasks, TaskSource(nil)
	if mode == demandStreamed {
		preload, src = nil, trace.SliceSource(tasks)
	}
	f := newFedSim(cfg, preload, src)
	for i, o := range oracles {
		o.sim = f.books[i].sim
	}
	if err = f.loop(context.Background()); err != nil {
		return 0, err
	}
	f.finish()
	for i, o := range oracles {
		if o.err != nil {
			return 0, fmt.Errorf("member %d: %w", i, o.err)
		}
		if o.calls < 2 {
			return 0, fmt.Errorf("member %d: no tick reached the oracle", i)
		}
	}
	return returns, nil
}

// FuzzDemandView checks the live demand view against the oracle: for a
// sorted preload, a streamed trace and a spilling federation the sum
// runs over s.tasks, the full-scan definition the view replaced; for an
// unsorted preload it runs in arrival order, stable in Submit, as the
// hpLive comment documents.
func FuzzDemandView(f *testing.F) {
	for seed := range int64(4) {
		for mode := range demandModes {
			f.Add(seed, uint8(mode))
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, mode uint8) {
		if _, err := runDemandWorld(seed, int(mode)%demandModes); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDemandViewSeeds runs the demand oracle over more seeds than the
// fuzz corpus, and requires that some federated run delivered a
// migrant back to the member it left, so a task coming home keeps its
// place in the view.
func TestDemandViewSeeds(t *testing.T) {
	returns := 0
	for seed := range int64(30) {
		for mode := range demandModes {
			n, err := runDemandWorld(seed, mode)
			if err != nil {
				t.Fatalf("seed %d mode %d: %v", seed, mode, err)
			}
			returns += n
		}
	}
	if returns == 0 {
		t.Fatal("no migrant ever returned to its origin member")
	}
	t.Logf("%d returning migrants", returns)
}
