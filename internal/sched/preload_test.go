package sched_test

import (
	"cmp"
	"context"
	"math/rand"
	"slices"
	"testing"

	"github.com/sjtucitlab/gfs/internal/baselines"
	"github.com/sjtucitlab/gfs/internal/cluster"
	"github.com/sjtucitlab/gfs/internal/pts"
	"github.com/sjtucitlab/gfs/internal/sched"
	"github.com/sjtucitlab/gfs/internal/simclock"
	"github.com/sjtucitlab/gfs/internal/task"
	"github.com/sjtucitlab/gfs/internal/trace"
)

// preloadWorld is one random run: tasks, possibly out of submission
// order and many sharing an instant, a scheduler choice and scenario
// actions timed at arrival instants.
type preloadWorld struct {
	tasks   func() []*task.Task
	gfs     bool
	sorted  bool
	actions []sched.ScenarioAction
}

// The three ways a world's tasks reach the simulator.
const (
	preloaded = iota
	injected
	streamed
)

func newPreloadWorld(seed int64, n uint8, flags uint8) preloadWorld {
	rng := rand.New(rand.NewSource(seed))
	count := 1 + int(n)%80
	unsorted := flags&1 != 0
	w := preloadWorld{gfs: flags&2 != 0, sorted: !unsorted}
	// Few instants, so most arrivals tie with another arrival and, at
	// multiples of the 300 s quota interval, with a tick. The instants
	// fall in up to three bursts 8 h apart, so a run usually idles
	// between bursts far longer than the quota interval.
	type spec struct {
		typ    task.Type
		pods   int
		gpus   float64
		dur    simclock.Duration
		submit simclock.Time
	}
	specs := make([]spec, count)
	for i := range specs {
		sp := spec{
			typ:    task.HP,
			pods:   1 + rng.Intn(2),
			gpus:   []float64{0.5, 1, 2, 4, 8}[rng.Intn(5)],
			dur:    simclock.Duration(5+rng.Intn(90)) * simclock.Minute,
			submit: simclock.Time(rng.Intn(12))*300 + simclock.Time(rng.Intn(3)*8)*simclock.Time(simclock.Hour),
		}
		if rng.Intn(2) == 0 {
			sp.typ = task.Spot
		}
		specs[i] = sp
	}
	order := make([]int, count)
	for i := range order {
		order[i] = i
	}
	if unsorted {
		rng.Shuffle(count, func(i, j int) { order[i], order[j] = order[j], order[i] })
	} else {
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(specs[a].submit, specs[b].submit) })
	}
	w.tasks = func() []*task.Task {
		out := make([]*task.Task, count)
		for k, i := range order {
			sp := specs[i]
			tk := task.New(i+1, sp.typ, sp.pods, sp.gpus, sp.dur)
			tk.Submit = sp.submit
			tk.Org = []string{"OrgA", "OrgB"}[i%2]
			if sp.typ == task.Spot {
				tk.CheckpointEvery = 10 * simclock.Minute
			}
			out[k] = tk
		}
		return out
	}
	// Actions land on arrival instants. A reclamation sweeps the
	// simulator's tasks in injection order, which for an unsorted
	// preload is the caller's order, not the order the other run
	// injects in, so only sorted worlds reclaim.
	for range rng.Intn(5) {
		at := specs[rng.Intn(count)].submit
		rack := cluster.DomainName(rng.Intn(2), rng.Intn(2))
		switch rng.Intn(3) {
		case 0:
			w.actions = append(w.actions, sched.ScenarioAction{At: at, Op: sched.OpDomainDown, Domain: rack})
		case 1:
			w.actions = append(w.actions, sched.ScenarioAction{At: at, Op: sched.OpDomainUp, Domain: rack})
		default:
			if !unsorted {
				w.actions = append(w.actions, sched.ScenarioAction{At: at, Op: sched.OpReclaimSpot, Fraction: 0.5})
			}
		}
	}
	return w
}

// run renders the event log of the world's tasks: preloaded, injected
// in stable submission order before the first step, or streamed
// through a one-member run from a source.
func (w preloadWorld) run(how int) string {
	cl := cluster.NewHomogeneous("A100", 4, 8)
	cl.AssignDomains(2, 2)
	var sc sched.Scheduler = baselines.NewStaticFirstFit()
	if w.gfs {
		sc = pts.New(pts.DefaultConfig())
	}
	log := &sched.EventLog{}
	cfg := sched.SimConfig{Cluster: cl, Scheduler: sc}
	cfg.Quota = sched.StaticQuota{Fraction: 0.5}
	cfg.Scenario = w.actions
	cfg.Observers = []sched.Observer{log}
	tasks := w.tasks()
	if how == streamed {
		solo := sched.FedConfig{Members: []sched.FedMember{{Name: "solo", Cfg: cfg}}}
		if _, err := sched.RunFederationContext(context.Background(), solo, nil, trace.SliceSource(tasks)); err != nil {
			return err.Error()
		}
		return log.String()
	}
	var preload []*task.Task
	if how == preloaded {
		preload = tasks
	}
	s := sched.NewSimForTest(cfg, preload, nil)
	if how == injected {
		slices.SortStableFunc(tasks, func(a, b *task.Task) int { return cmp.Compare(a.Submit, b.Submit) })
		for _, tk := range tasks {
			sched.InjectForTest(s, tk, tk.Submit)
		}
	}
	for sched.StepForTest(s) {
	}
	sched.FinishForTest(s)
	return log.String()
}

// FuzzPreloadMatchesInject: a preloaded trace, delivered from the
// simulator's arrival feed, yields byte for byte the event log of the
// same tasks injected up front into the event queue, under GFS's
// placement and first fit, sorted or not, with ties among arrivals and
// against scenario actions and quota ticks at the same instant. A
// sorted world streamed from a source yields it too, idle gaps
// between bursts included.
func FuzzPreloadMatchesInject(f *testing.F) {
	// Every pairing of sorted or not with GFS or first fit.
	for seed := int64(1); seed <= 24; seed++ {
		for flags := range uint8(4) {
			f.Add(seed, uint8(7*seed), flags)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, n, flags uint8) {
		w := newPreloadWorld(seed, n, flags)
		want := w.run(preloaded)
		if got := w.run(injected); got != want {
			t.Fatalf("injected log differs from the preloaded one\ninjected:\n%s\npreloaded:\n%s", got, want)
		}
		if !w.sorted {
			return
		}
		if got := w.run(streamed); got != want {
			t.Fatalf("streamed log differs from the preloaded one\nstreamed:\n%s\npreloaded:\n%s", got, want)
		}
	})
}
