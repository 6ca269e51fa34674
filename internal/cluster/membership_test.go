package cluster

import (
	"errors"
	"testing"

	"github.com/sjtucitlab/gfs/internal/task"
)

func TestNodeDownGating(t *testing.T) {
	c := NewHomogeneous("A100", 2, 8)
	n := c.Node(0)
	if n == nil || c.Node(5) != nil {
		t.Fatal("Node lookup broken")
	}
	tk := task.New(1, task.HP, 1, 4, 3600)
	n.SetDown(true)
	if n.CanFitPod(tk) || n.WholeFreeGPUs() != 0 {
		t.Fatal("down node must refuse placements")
	}
	if err := n.PlacePod(tk); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("PlacePod on down node: %v", err)
	}
	if c.TotalGPUs("") != 8 {
		t.Fatalf("down node still counted: %v", c.TotalGPUs(""))
	}
	n.SetDown(false)
	if !n.CanFitPod(tk) || c.TotalGPUs("") != 16 {
		t.Fatal("restore should rejoin capacity")
	}
}

func TestNodeCordonKeepsCapacity(t *testing.T) {
	c := NewHomogeneous("A100", 1, 8)
	n := c.Node(0)
	tk := task.New(1, task.HP, 1, 4, 3600)
	if err := n.PlacePod(tk); err != nil {
		t.Fatal(err)
	}
	n.SetCordoned(true)
	if n.CanFitPod(tk) {
		t.Fatal("cordoned node must refuse new pods")
	}
	if c.TotalGPUs("") != 8 || c.UsedGPUs("") != 4 {
		t.Fatal("cordoned node stays in capacity totals")
	}
	// Restoring from down also clears the cordon.
	n.SetDown(true)
	n.SetDown(false)
	if !n.Schedulable() {
		t.Fatal("SetDown(false) should clear the cordon")
	}
}

func TestAddPool(t *testing.T) {
	c := NewHomogeneous("A100", 2, 8)
	added := c.AddPool(Pool{Model: "H100", Nodes: 3, GPUsPerNode: 4})
	if len(added) != 3 {
		t.Fatalf("added %d nodes", len(added))
	}
	if added[0].ID != 2 || added[2].ID != 4 {
		t.Fatalf("IDs %d..%d, want 2..4", added[0].ID, added[2].ID)
	}
	if c.TotalGPUs("H100") != 12 || c.TotalGPUs("") != 28 {
		t.Fatalf("capacity after scale-out: %v", c.TotalGPUs(""))
	}
	if c.Node(4) != added[2] {
		t.Fatal("byID lookup missing new node")
	}
	if c.nextID != 5 {
		t.Fatalf("nextID = %d, want 5", c.nextID)
	}

	// Nodes added out of ID order: a pool numbers after the highest
	// ID, not after the last node added.
	c = New()
	for _, id := range []int{7, 3} {
		c.AddNode(NewNode(id, "A100", 8))
	}
	if added := c.AddPool(Pool{Model: "A100", Nodes: 2, GPUsPerNode: 8}); added[0].ID != 8 || added[1].ID != 9 {
		t.Fatalf("out-of-order IDs: pool numbered %d, %d, want 8, 9", added[0].ID, added[1].ID)
	}
	// Negative IDs keep the floor: an empty or all-negative cluster
	// numbers from 0.
	c = New()
	c.AddNode(NewNode(-5, "A100", 8))
	if added := c.AddPool(Pool{Model: "A100", Nodes: 1, GPUsPerNode: 8}); added[0].ID != 0 {
		t.Fatalf("after node -5: pool numbered %d, want 0", added[0].ID)
	}
}
