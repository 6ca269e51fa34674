package core

import (
	"testing"

	"github.com/sjtucitlab/gfs/internal/cluster"
	"github.com/sjtucitlab/gfs/internal/sched"
	"github.com/sjtucitlab/gfs/internal/simclock"
)

func TestMaxAdmitPerPass(t *testing.T) {
	sys := New(Options{})
	sys.Quota.ramp = 0.03
	if got := sys.Quota.MaxAdmitPerPass(1000); got != 30 {
		t.Fatalf("ramp = %v, want 30", got)
	}
	// Default ramp is 5%.
	sys = New(Options{})
	if got := sys.Quota.MaxAdmitPerPass(1000); got != 50 {
		t.Fatalf("default ramp = %v, want 50", got)
	}
	// The quota implements the simulator's limiter interface.
	var _ sched.AdmissionLimiter = sys.Quota
}

func TestEtaUpdatesOncePerGuaranteeWindow(t *testing.T) {
	sys := New(Options{})
	cl := cluster.NewHomogeneous("A100", 4, 8)
	ctx := func(at simclock.Time) *sched.QuotaContext {
		return &sched.QuotaContext{
			Now: at, Cluster: cl,
			EvictionRate: 0.9, // far above target: η shrinks on update
		}
	}
	sys.Quota.Quota(ctx(0)) // first call updates η
	after1 := sys.Quota.Allocator().Eta()
	if after1 >= 1.0 {
		t.Fatalf("first update should shrink η, got %v", after1)
	}
	// Five minutes later (within the 1 h window): no further update.
	sys.Quota.Quota(ctx(simclock.Time(300 * simclock.Second)))
	if sys.Quota.Allocator().Eta() != after1 {
		t.Fatal("η must hold steady within the guarantee window")
	}
	// Past the window: updates again.
	sys.Quota.Quota(ctx(simclock.Time(simclock.Hour)))
	if sys.Quota.Allocator().Eta() >= after1 {
		t.Fatal("η should update after the window elapses")
	}
}

func TestQuotaSigmaFeedsInventory(t *testing.T) {
	// Without an estimator, inventory equals capacity, so the quota
	// is bound by idle GPUs only.
	sys := New(Options{})
	cl := cluster.NewHomogeneous("A100", 2, 8)
	q := sys.Quota.Quota(&sched.QuotaContext{Now: 0, Cluster: cl})
	if q != 16 {
		t.Fatalf("quota = %v, want 16 (idle bound)", q)
	}
}
