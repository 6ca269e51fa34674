package sched

import (
	"testing"

	"github.com/sjtucitlab/gfs/internal/cluster"
	"github.com/sjtucitlab/gfs/internal/simclock"
	"github.com/sjtucitlab/gfs/internal/task"
)

func newTask(id int, typ task.Type, pods int, g float64) *task.Task {
	tk := task.New(id, typ, pods, g, simclock.Hour)
	return tk
}

func TestTxnPlaceCommit(t *testing.T) {
	st := NewState(cluster.NewHomogeneous("A100", 2, 8))
	tk := newTask(1, task.HP, 2, 4)
	txn := st.Begin()
	nodes := st.Cluster.Nodes()
	if err := txn.Place(nodes[0], tk); err != nil {
		t.Fatal(err)
	}
	if err := txn.Place(nodes[1], tk); err != nil {
		t.Fatal(err)
	}
	dec := txn.Commit()
	if len(dec.PodNodes) != 2 || dec.PodNodes[0] != nodes[0] || dec.PodNodes[1] != nodes[1] {
		t.Fatalf("pod nodes %v", dec.PodNodes)
	}
	if len(dec.Victims) != 0 {
		t.Fatal("no victims expected")
	}
	locs := st.NodesOf(tk)
	if len(locs) != 2 || locs[0].Pods != 1 || locs[1].Pods != 1 {
		t.Fatalf("locations %v", locs)
	}
}

func TestTxnRollbackRestoresCapacity(t *testing.T) {
	st := NewState(cluster.NewHomogeneous("A100", 2, 8))
	tk := newTask(1, task.HP, 1, 8)
	txn := st.Begin()
	if err := txn.Place(st.Cluster.Nodes()[0], tk); err != nil {
		t.Fatal(err)
	}
	txn.Rollback()
	if st.Cluster.UsedGPUs("") != 0 {
		t.Fatal("rollback should free all capacity")
	}
	if len(st.NodesOf(tk)) != 0 {
		t.Fatal("rollback should deregister the task")
	}
}

func TestTxnEvictAndRollbackRestoresVictim(t *testing.T) {
	st := NewState(cluster.NewHomogeneous("A100", 2, 8))
	victim := newTask(1, task.Spot, 2, 4) // pods on both nodes
	setup := st.Begin()
	if err := setup.Place(st.Cluster.Nodes()[0], victim); err != nil {
		t.Fatal(err)
	}
	if err := setup.Place(st.Cluster.Nodes()[1], victim); err != nil {
		t.Fatal(err)
	}
	setup.Commit()

	hp := newTask(2, task.HP, 1, 8)
	txn := st.Begin()
	txn.Evict(victim)
	if st.Cluster.SpotGPUs("") != 0 {
		t.Fatal("eviction should free spot capacity")
	}
	if err := txn.Place(st.Cluster.Nodes()[0], hp); err != nil {
		t.Fatal(err)
	}
	txn.Rollback()
	// Victim fully restored on both nodes.
	if st.Cluster.SpotGPUs("") != 8 {
		t.Fatalf("spot capacity = %v, want 8 after rollback", st.Cluster.SpotGPUs(""))
	}
	locs := st.NodesOf(victim)
	if len(locs) != 2 {
		t.Fatalf("victim locations = %d, want 2", len(locs))
	}
	if len(st.NodesOf(hp)) != 0 {
		t.Fatal("hp should not remain placed")
	}
}

func TestTxnCommitReportsVictimLocations(t *testing.T) {
	st := NewState(cluster.NewHomogeneous("A100", 1, 8))
	victim := newTask(1, task.Spot, 1, 4)
	setup := st.Begin()
	if err := setup.Place(st.Cluster.Nodes()[0], victim); err != nil {
		t.Fatal(err)
	}
	setup.Commit()

	hp := newTask(2, task.HP, 1, 8)
	txn := st.Begin()
	txn.Evict(victim)
	if err := txn.Place(st.Cluster.Nodes()[0], hp); err != nil {
		t.Fatal(err)
	}
	dec := txn.Commit()
	if len(dec.Victims) != 1 || dec.Victims[0] != victim {
		t.Fatalf("victims %v", dec.Victims)
	}
	if len(dec.VictimLocs) != 1 || len(dec.VictimLocs[0]) != 1 ||
		dec.VictimLocs[0][0].Node != st.Cluster.Nodes()[0] {
		t.Fatalf("victim locs %v", dec.VictimLocs)
	}
}

func TestTxnDoubleCloseWouldPanic(t *testing.T) {
	st := NewState(cluster.NewHomogeneous("A100", 1, 8))
	txn := st.Begin()
	txn.Commit()
	defer func() {
		if recover() == nil {
			t.Fatal("second close should panic")
		}
	}()
	txn.Rollback()
}

func TestEvictUnknownTaskIsNoop(t *testing.T) {
	st := NewState(cluster.NewHomogeneous("A100", 1, 8))
	txn := st.Begin()
	txn.Evict(newTask(9, task.Spot, 1, 1))
	if dec := txn.Commit(); len(dec.Victims) != 0 || len(dec.VictimLocs) != 0 {
		t.Fatalf("evicting an unplaced task should record nothing, got %v", dec.Victims)
	}
}

// TestTxnCycleAllocatesNothing: once warm, a placement transaction —
// Begin, Place, Commit, then ReleaseAll when the task ends — reuses
// the pooled transaction, the recycled location slice and the state's
// decision.
func TestTxnCycleAllocatesNothing(t *testing.T) {
	st := NewState(cluster.NewHomogeneous("A100", 2, 8))
	tk := newTask(1, task.HP, 2, 4)
	nodes := st.Cluster.Nodes()
	cycle := func() {
		txn := st.Begin()
		for _, n := range nodes {
			if err := txn.Place(n, tk); err != nil {
				t.Fatal(err)
			}
		}
		if dec := txn.Commit(); len(dec.PodNodes) != 2 {
			t.Fatalf("pod nodes %v", dec.PodNodes)
		}
		st.ReleaseAll(tk)
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("a warm transaction cycle allocates %v times, want 0", n)
	}
}
