package sched

import (
	"slices"
	"testing"

	"github.com/sjtucitlab/gfs/internal/cluster"
	"github.com/sjtucitlab/gfs/internal/simclock"
	"github.com/sjtucitlab/gfs/internal/task"
)

// scenarioWorld is four 8-GPU nodes, one rack each (zone-0: nodes 0 and
// 1, zone-1: nodes 2 and 3), with node 1 down and node 3 cordoned, an
// HP task filling node 0 and a spot task on node 2, stepped past the
// arrivals to t=100 with the event log cleared.
func scenarioWorld(t *testing.T) (*Simulator, *EventLog) {
	t.Helper()
	cl := cluster.NewHomogeneous("A100", 4, 8)
	cl.AssignDomains(2, 2)
	cl.Node(1).SetDown(true)
	cl.Node(3).SetCordoned(true)
	log := &EventLog{}
	cfg := DefaultSimConfig(cl, &firstFit{})
	cfg.Observers = []Observer{log}
	s := NewSimulator(cfg, []*task.Task{
		mkTask(1, task.HP, 1, 8, simclock.Hour, 0),
		mkTask(2, task.Spot, 1, 4, simclock.Hour, 0),
	})
	s.Step()
	if cl.Node(0).UsedGPUs() != 8 || cl.Node(2).SpotGPUs() != 4 {
		t.Fatalf("world not as described: node 0 holds %g, node 2 holds %g spot", cl.Node(0).UsedGPUs(), cl.Node(2).SpotGPUs())
	}
	s.now = 100
	log.Events = nil
	return s, log
}

// TestScenarioOpContract pins, for all three ops, the two halves of
// the one mutation path: an action that changes nothing — an unknown
// domain, nodes already in the state asked for, nothing to reclaim —
// emits no event, samples no allocation, leaves capacity and
// the idle clock alone and asks for no scheduling pass; an action that
// changes something emits its events, then exactly one AllocSampled
// carrying the new capacity, restarts the idle clock and asks for a
// pass.
func TestScenarioOpContract(t *testing.T) {
	const down, up, evicted, sampled = NodeDown, NodeUp, TaskEvicted, AllocSampled
	for _, c := range []struct {
		name   string
		action ScenarioAction
		// want is the event kinds of an effective action, in order (nil
		// for a no-op); capacity the schedulable GPUs afterwards.
		want     []EventKind
		capacity float64
	}{
		{"reclaim zero fraction", ScenarioAction{Op: OpReclaimSpot}, nil, 24},
		{"reclaim", ScenarioAction{Op: OpReclaimSpot, Fraction: 1}, []EventKind{evicted, sampled}, 24},
		{"domain-down empty domain", ScenarioAction{Op: OpDomainDown}, nil, 24},
		{"domain-down unknown domain", ScenarioAction{Op: OpDomainDown, Domain: "zone-9"}, nil, 24},
		{"domain-down already down", ScenarioAction{Op: OpDomainDown, Domain: "zone-0/rack-1"}, nil, 24},
		{"domain-down", ScenarioAction{Op: OpDomainDown, Domain: "zone-1"}, []EventKind{down, evicted, down, sampled}, 8},
		{"domain-up unknown domain", ScenarioAction{Op: OpDomainUp, Domain: "zone-9"}, nil, 24},
		{"domain-up already up", ScenarioAction{Op: OpDomainUp, Domain: "zone-0/rack-0"}, nil, 24},
		{"domain-up", ScenarioAction{Op: OpDomainUp, Domain: "zone-0"}, []EventKind{up, sampled}, 32},
		{"domain-up keeps a retiring node cordoned", ScenarioAction{Op: OpDomainUp, Domain: "zone-1/rack-1"}, nil, 24},
		{"unknown op", ScenarioAction{Op: OpDomainUp + 1, Domain: "zone-0"}, nil, 24},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, log := scenarioWorld(t)
			tracker, progress, pending := *s.alloc, s.lastProgress, s.pend.n
			pass := s.applyScenario(c.action)
			var kinds []EventKind
			for _, e := range log.Events {
				kinds = append(kinds, e.Kind)
			}
			if !slices.Equal(kinds, c.want) {
				t.Errorf("emitted %v, want %v", kinds, c.want)
			}
			if got := s.alloc.Capacity(); got != c.capacity || s.state.Cluster.TotalGPUs("") != c.capacity {
				t.Errorf("capacity: tracker %g, cluster %g, want %g", got, s.state.Cluster.TotalGPUs(""), c.capacity)
			}
			if c.want == nil {
				if pass || *s.alloc != tracker || s.lastProgress != progress || s.pend.n != pending {
					t.Errorf("no-op action: pass %v, tracker moved %v, idle clock %d→%d, queue %d→%d",
						pass, *s.alloc != tracker, progress, s.lastProgress, pending, s.pend.n)
				}
				return
			}
			if last := log.Events[len(log.Events)-1]; !pass || s.lastProgress != s.now || last.Capacity != c.capacity {
				t.Errorf("effective action: pass %v, idle clock %d at %d, sampled capacity %g, want %g",
					pass, s.lastProgress, s.now, last.Capacity, c.capacity)
			}
		})
	}
}
