package gfs_test

import (
	"testing"

	gfs "github.com/sjtucitlab/gfs"
	"github.com/sjtucitlab/gfs/internal/baselines"
	"github.com/sjtucitlab/gfs/internal/sched"
	"github.com/sjtucitlab/gfs/internal/trace"
)

// invariantChecker is an Observer asserting the simulator's safety
// invariants on every event, across every run shape (plain, storm,
// federation, streamed replay):
//
//   - monotone clock: event timestamps never move backwards within a
//     member's stream (member-local clocks lag the shared federation
//     clock while idle, so the merged log is only monotone per
//     member; a stream's pre-pass quota prologue is stamped at the
//     first arrival's time and is exempt), and sequence numbers are
//     strictly increasing;
//   - capacity: no node is ever oversubscribed or negative-used;
//   - conservation: lifecycle events only ever reference tasks that
//     arrived, and no task finishes twice;
//   - restores: every NodeUp names a node its member's stream saw go
//     NodeDown and has not restored since. The cost ledger keeps no
//     books on NodeDown/NodeUp because of it.
//
// Clusters are registered per member name ("" for single-engine
// runs) so the capacity sweep follows the event's member.
type invariantChecker struct {
	t        *testing.T
	clusters map[string]*gfs.Cluster
	started  bool
	lastAt   map[string]gfs.Time
	lastSeq  uint64
	arrived  map[int]int
	finished map[int]int
	down     map[memberNode]bool
}

// memberNode names one node of one member's cluster.
type memberNode struct {
	member string
	id     int
}

func newInvariantChecker(t *testing.T) *invariantChecker {
	return &invariantChecker{
		t:        t,
		clusters: map[string]*gfs.Cluster{},
		lastAt:   map[string]gfs.Time{},
		arrived:  map[int]int{},
		finished: map[int]int{},
		down:     map[memberNode]bool{},
	}
}

func (c *invariantChecker) watch(member string, cl *gfs.Cluster) *invariantChecker {
	c.clusters[member] = cl
	return c
}

const capEps = 1e-9

func (c *invariantChecker) OnEvent(e gfs.Event) {
	t := c.t
	if last, seen := c.lastAt[e.Member]; seen && e.At < last {
		t.Fatalf("clock moved backwards: event at t=%d after t=%d (%s)", e.At, last, e.String())
	}
	if _, seen := c.lastAt[e.Member]; !seen && e.Kind == gfs.QuotaUpdated {
		// The pre-pass quota prologue is stamped at the first
		// arrival's time, before the loop drains scenario actions
		// queued earlier; it anchors the quota, not the clock.
		c.started, c.lastSeq = true, e.Seq
		return
	}
	if c.started && e.Seq <= c.lastSeq {
		t.Fatalf("sequence not strictly increasing: seq=%d after seq=%d (%s)", e.Seq, c.lastSeq, e.String())
	}
	c.started, c.lastSeq = true, e.Seq
	c.lastAt[e.Member] = e.At

	if cl := c.clusters[e.Member]; cl != nil {
		for _, n := range cl.Nodes() {
			used := n.UsedGPUs()
			if used < -capEps {
				t.Fatalf("node %d used %g GPUs < 0 after %s", n.ID, used, e.String())
			}
			if cap := float64(n.Capacity()); used > cap+capEps {
				t.Fatalf("node %d oversubscribed: used %g of %g after %s", n.ID, used, cap, e.String())
			}
		}
	}

	switch e.Kind {
	case gfs.TaskArrived:
		c.arrived[e.Task.ID]++
	case gfs.TaskStarted, gfs.TaskEvicted:
		if c.arrived[e.Task.ID] == 0 {
			t.Fatalf("task %d %v before arrival", e.Task.ID, e.Kind)
		}
	case gfs.TaskFinished:
		if c.arrived[e.Task.ID] == 0 {
			t.Fatalf("task %d finished before arrival", e.Task.ID)
		}
		c.finished[e.Task.ID]++
		if c.finished[e.Task.ID] > 1 {
			t.Fatalf("task %d finished twice", e.Task.ID)
		}
	case gfs.NodeDown:
		c.down[memberNode{e.Member, e.Node.ID}] = true
	case gfs.NodeUp:
		k := memberNode{e.Member, e.Node.ID}
		if !c.down[k] {
			t.Fatalf("NodeUp for node %d, which its stream never saw go down (%s)", e.Node.ID, e.String())
		}
		delete(c.down, k)
	}
}

// finish asserts end-of-run conservation against the input trace:
// every task arrived, none is left mid-flight, and the Finished state
// agrees with the TaskFinished events.
func (c *invariantChecker) finish(tasks []*gfs.Task) {
	t := c.t
	for _, tk := range tasks {
		if c.arrived[tk.ID] == 0 {
			t.Fatalf("task %d never arrived", tk.ID)
		}
		if tk.State == gfs.StateRunning {
			t.Fatalf("task %d still running after the run drained", tk.ID)
		}
		if finished := c.finished[tk.ID] > 0; finished != (tk.State == gfs.StateFinished) {
			t.Fatalf("task %d: finished-event count %d disagrees with state %v",
				tk.ID, c.finished[tk.ID], tk.State)
		}
	}
	if len(c.arrived) != len(tasks) {
		t.Fatalf("arrivals for %d distinct tasks, trace holds %d", len(c.arrived), len(tasks))
	}
}

// TestInvariantsEngineStorm checks the invariants on single-engine
// runs under the full scenario stack, for both the GFS stack and the
// YARN baseline.
func TestInvariantsEngineStorm(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sched gfs.Scheduler
		seed  int64
	}{
		{"gfs", nil, 21},
		{"yarn", baselines.NewYARNCS(), 22},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl := gfs.NewCluster("A100", 16, 8)
			cl.AssignDomains(2, 4)
			chk := newInvariantChecker(t).watch("", cl)
			opts := append([]gfs.Option{gfs.WithObserver(chk)}, goldenStorm(tc.seed)...)
			if tc.sched != nil {
				opts = append(opts, gfs.WithScheduler(tc.sched), gfs.WithQuota(gfs.StaticQuota(0.5)))
			}
			tasks := gfs.GenerateTrace(goldenTraceCfg(tc.seed))
			gfs.NewEngine(cl, opts...).Run(tasks)
			chk.finish(tasks)
		})
	}
}

// TestInvariantsFederationStorm checks the invariants on a federated
// run with a storm over one member and spillover migration to the
// other. Migrated tasks re-arrive at their target member, so arrival
// counts may exceed one, but finishes stay unique and capacity holds
// on both member clusters.
func TestInvariantsFederationStorm(t *testing.T) {
	west := gfs.NewCluster("A100", 8, 8)
	west.AssignDomains(2, 2)
	east := gfs.NewCluster("A100", 8, 8)
	east.AssignDomains(2, 2)
	chk := newInvariantChecker(t).watch("west", west).watch("east", east)
	fed := gfs.NewFederation([]gfs.Member{
		{Name: "west", Engine: gfs.NewEngine(west, goldenStorm(23)...)},
		{Name: "east", Engine: gfs.NewEngine(east)},
	},
		gfs.WithRoute(gfs.RouteLeastLoaded()),
		gfs.WithSpillover(sched.SpillLeastLoaded{}),
		gfs.WithMigrationDelay(10*gfs.Minute),
		gfs.WithFederationObserver(chk),
	)
	tasks := gfs.GenerateTrace(goldenTraceCfg(23))
	fed.Run(tasks)
	chk.finish(tasks)
}

// autoscaleInvariantChecker layers the autoscaler's capacity
// contract on top of the base invariants:
//
//   - no task ever occupies an autoscaled node before its
//     NodeProvisioned event — delivery is when the pre-warm lead
//     elapses, so earlier usage means capacity jumped the lead;
//   - retirement drains rather than strands: a retired node takes no
//     new work and is empty by the end of the run;
//   - the provision/retire ledger reconciles with the final cluster:
//     every tiered node traces to a NodeProvisioned event, and the
//     cordoned ones are exactly the NodeRetired set.
type autoscaleInvariantChecker struct {
	*invariantChecker
	base        map[int]bool
	provisioned map[int]gfs.Time
	retired     map[int]gfs.Time
}

func newAutoscaleChecker(t *testing.T, cl *gfs.Cluster) *autoscaleInvariantChecker {
	base := map[int]bool{}
	for _, n := range cl.Nodes() {
		base[n.ID] = true
	}
	return &autoscaleInvariantChecker{
		invariantChecker: newInvariantChecker(t).watch("", cl),
		base:             base,
		provisioned:      map[int]gfs.Time{},
		retired:          map[int]gfs.Time{},
	}
}

func (c *autoscaleInvariantChecker) OnEvent(e gfs.Event) {
	c.invariantChecker.OnEvent(e)
	t := c.t
	switch e.Kind {
	case gfs.NodeProvisioned:
		if c.base[e.Node.ID] {
			t.Fatalf("node %d provisioned but present at start (%s)", e.Node.ID, e.String())
		}
		if _, dup := c.provisioned[e.Node.ID]; dup {
			t.Fatalf("node %d provisioned twice (%s)", e.Node.ID, e.String())
		}
		if e.Tier == "" {
			t.Fatalf("provisioned node %d carries no tier (%s)", e.Node.ID, e.String())
		}
		c.provisioned[e.Node.ID] = e.At
	case gfs.NodeRetired:
		if _, ok := c.provisioned[e.Node.ID]; !ok {
			t.Fatalf("node %d retired but never provisioned (%s)", e.Node.ID, e.String())
		}
		if _, dup := c.retired[e.Node.ID]; dup {
			t.Fatalf("node %d retired twice (%s)", e.Node.ID, e.String())
		}
		c.retired[e.Node.ID] = e.At
	}
	for _, n := range c.clusters[""].Nodes() {
		if c.base[n.ID] {
			continue
		}
		if _, ok := c.provisioned[n.ID]; !ok && n.UsedGPUs() > capEps {
			t.Fatalf("node %d hosts %g GPUs before its pre-warm lead elapsed (%s)",
				n.ID, n.UsedGPUs(), e.String())
		}
		if _, gone := c.retired[n.ID]; gone && n.Schedulable() {
			t.Fatalf("node %d schedulable after retirement (%s)", n.ID, e.String())
		}
	}
}

// finishAutoscale asserts the end-of-run capacity ledger on top of
// the base conservation checks.
func (c *autoscaleInvariantChecker) finishAutoscale(tasks []*gfs.Task) {
	c.finish(tasks)
	t := c.t
	tiered, cordoned := 0, 0
	for _, n := range c.clusters[""].Nodes() {
		if n.Tier == "" {
			continue
		}
		tiered++
		if n.Cordoned() {
			cordoned++
		}
		if _, ok := c.provisioned[n.ID]; !ok {
			t.Fatalf("tiered node %d in final cluster without a NodeProvisioned event", n.ID)
		}
		if _, ret := c.retired[n.ID]; ret && n.UsedGPUs() > capEps {
			t.Fatalf("retired node %d stranded with %g GPUs still in use", n.ID, n.UsedGPUs())
		}
	}
	if tiered != len(c.provisioned) {
		t.Fatalf("capacity ledger: %d provision events but %d tiered nodes in final cluster",
			len(c.provisioned), tiered)
	}
	if cordoned != len(c.retired) {
		t.Fatalf("capacity ledger: %d retire events but %d cordoned tiered nodes",
			len(c.retired), cordoned)
	}
}

// TestInvariantsAutoscaleStorm checks the autoscaler's capacity
// contract under the seeded RandomStorms stack, for both policy
// modes. The under-provisioned base fleet forces real provisioning
// traffic; the storm interleaves failures and reclamation with
// capacity churn.
func TestInvariantsAutoscaleStorm(t *testing.T) {
	for _, mode := range []gfs.AutoscaleMode{gfs.AutoscaleReactive, gfs.AutoscalePredictive} {
		t.Run(string(mode), func(t *testing.T) {
			cl := gfs.NewCluster("A100", 12, 8)
			cl.AssignDomains(2, 4)
			chk := newAutoscaleChecker(t, cl)
			pol := &gfs.AutoscalePolicy{
				Mode:     mode,
				MaxNodes: 8,
				Step:     2,
				Curve:    &gfs.DiurnalCurve{PeakHour: 14, Width: 4},
			}
			tasks := gfs.GenerateTrace(goldenTraceCfg(27))
			gfs.NewEngine(cl, append(goldenStorm(27), gfs.WithObserver(chk), gfs.WithAutoscaler(pol))...).Run(tasks)
			if len(chk.provisioned) == 0 {
				t.Fatal("autoscaler never provisioned; the case no longer exercises the contract")
			}
			chk.finishAutoscale(tasks)
		})
	}
}

// TestInvariantsReplayStorm checks the invariants on the streamed
// replay path under the same storm stack: constant-memory ingestion
// must uphold exactly the safety properties of the preloaded run.
func TestInvariantsReplayStorm(t *testing.T) {
	cl := gfs.NewCluster("A100", 16, 8)
	cl.AssignDomains(2, 4)
	chk := newInvariantChecker(t).watch("", cl)
	tasks := gfs.GenerateTrace(goldenTraceCfg(24))
	eng := gfs.NewEngine(cl, append(goldenStorm(24),
		gfs.WithScheduler(baselines.NewYARNCS()), gfs.WithQuota(gfs.StaticQuota(0.5)),
		gfs.WithObserver(chk),
		gfs.WithTraceSource(trace.SliceSource(tasks)),
	)...)
	if _, err := replay(eng); err != nil {
		t.Fatal(err)
	}
	chk.finish(tasks)
}
