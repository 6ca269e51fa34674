package sqa

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/sjtucitlab/gfs/internal/simclock"
	"github.com/sjtucitlab/gfs/internal/stats"
)

func TestInventoryBasic(t *testing.T) {
	a := New(Config{H: 2})
	fc := []OrgForecast{
		{Mu: []float64{100, 120}, Sigma: []float64{10, 10}},
		{Mu: []float64{50, 40}, Sigma: []float64{5, 5}},
	}
	z := stats.NormICDF(0.9)
	want := 1000 - ((120 + z*10) + (50 + z*5))
	got := a.Inventory(1000, fc)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("inventory = %v, want %v", got, want)
	}
}

func TestInventorySaturationFloorsAtZero(t *testing.T) {
	a := New(DefaultConfig())
	fc := []OrgForecast{{Mu: []float64{900}, Sigma: []float64{50}}}
	if got := a.Inventory(800, fc); got != 0 {
		t.Fatalf("saturated inventory = %v, want 0", got)
	}
}

func TestInventoryHorizonClamp(t *testing.T) {
	// H larger than the forecast length must not panic and uses
	// available steps.
	a := New(Config{H: 10})
	fc := []OrgForecast{{Mu: []float64{100}, Sigma: []float64{0}}}
	if got := a.Inventory(500, fc); math.Abs(got-400) > 1e-9 {
		t.Fatalf("inventory = %v, want 400", got)
	}
}

func TestInventoryHigherPReservesMore(t *testing.T) {
	fc := []OrgForecast{{Mu: []float64{500}, Sigma: []float64{50}}}
	lo, hi := New(DefaultConfig()), New(DefaultConfig())
	lo.p, hi.p = 0.8, 0.99
	if lo, hi := lo.Inventory(1000, fc), hi.Inventory(1000, fc); hi >= lo {
		t.Fatalf("P=0.99 inventory %v should be below P=0.8 %v", hi, lo)
	}
}

func TestZeroHReadsAsOne(t *testing.T) {
	if h := New(Config{}).Config().H; h != 1 {
		t.Fatalf("H = %d, want 1", h)
	}
}

func TestInventoryNegativeUpperBoundIgnored(t *testing.T) {
	// An org with strongly negative forecast must not add quota.
	a := New(DefaultConfig())
	fc := []OrgForecast{
		{Mu: []float64{-50}, Sigma: []float64{1}},
		{Mu: []float64{100}, Sigma: []float64{0}},
	}
	if got := a.Inventory(1000, fc); math.Abs(got-900) > 1e-9 {
		t.Fatalf("inventory = %v, want 900", got)
	}
}

func TestQuotaComposition(t *testing.T) {
	a := New(DefaultConfig())
	// Inventory-limited.
	if q := a.Quota(100, 500, 50); q != 100 {
		t.Fatalf("quota = %v, want 100", q)
	}
	// Idle+guaranteed limited.
	if q := a.Quota(1000, 50, 20); q != 70 {
		t.Fatalf("quota = %v, want 70", q)
	}
	// Eta scales the inventory term.
	a.SetEta(0.5)
	if q := a.Quota(100, 500, 50); q != 50 {
		t.Fatalf("quota with η=0.5 = %v, want 50", q)
	}
	if q := a.Quota(-10, 5, 5); q != 0 {
		t.Fatalf("quota must not be negative, got %v", q)
	}
}

func TestUpdateEtaHighEvictionShrinks(t *testing.T) {
	a := New(DefaultConfig()) // P=0.9 → target e = 0.1
	a.UpdateEta(0.4, 0)       // e = 0.4 > 1.5×0.1
	want := 1.0 * 0.1 / 0.4
	if math.Abs(a.Eta()-want) > 1e-9 {
		t.Fatalf("eta = %v, want %v", a.Eta(), want)
	}
}

func TestUpdateEtaLowEvictionLongQueueGrows(t *testing.T) {
	a := New(DefaultConfig())
	a.UpdateEta(0.01, 2*simclock.Hour) // e = 0.01 < 0.05, l > θ
	want := 1.5 - 0.01/0.1
	if math.Abs(a.Eta()-want) > 1e-9 {
		t.Fatalf("eta = %v, want %v", a.Eta(), want)
	}
}

func TestUpdateEtaStableOtherwise(t *testing.T) {
	a := New(DefaultConfig())
	// Low eviction but short queues: unchanged.
	a.UpdateEta(0.01, simclock.Minute)
	if a.Eta() != 1.0 {
		t.Fatalf("eta = %v, want 1.0", a.Eta())
	}
	// Mid-range eviction: unchanged.
	a.UpdateEta(0.1, 2*simclock.Hour)
	if a.Eta() != 1.0 {
		t.Fatalf("eta = %v, want 1.0", a.Eta())
	}
}

func TestUpdateEtaClamped(t *testing.T) {
	a := New(DefaultConfig())
	for i := 0; i < 50; i++ {
		a.UpdateEta(0.99, 0) // extreme eviction every time
	}
	if a.Eta() < 0.1-1e-12 {
		t.Fatalf("eta = %v fell below EtaMin", a.Eta())
	}
	for i := 0; i < 50; i++ {
		a.UpdateEta(0.0, 5*simclock.Hour)
	}
	if a.Eta() > 2.0+1e-12 {
		t.Fatalf("eta = %v rose above EtaMax", a.Eta())
	}
}

func TestEtaFeedbackConverges(t *testing.T) {
	// A toy closed loop: eviction rate proportional to η. The
	// controller should settle near the target band.
	a := New(DefaultConfig())
	k := 0.25 // e = k·η
	for i := 0; i < 100; i++ {
		e := k * a.Eta()
		a.UpdateEta(e, 2*simclock.Hour)
	}
	e := k * a.Eta()
	if e > 0.2 {
		t.Fatalf("closed-loop eviction %v should settle near target 0.1", e)
	}
}

// Property: quota is always within [0, idle+guaranteed] and monotone
// in inventory.
func TestQuotaBoundsProperty(t *testing.T) {
	f := func(inv, idle, guar uint16) bool {
		a := New(DefaultConfig())
		q := a.Quota(float64(inv), float64(idle), float64(guar))
		if q < 0 || q > float64(idle)+float64(guar)+1e-9 {
			return false
		}
		q2 := a.Quota(float64(inv)+10, float64(idle), float64(guar))
		return q2+1e-9 >= q
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: eta stays within clamps under arbitrary update sequences.
func TestEtaClampProperty(t *testing.T) {
	f := func(rates []uint8, queues []uint8) bool {
		a := New(DefaultConfig())
		n := len(rates)
		if len(queues) < n {
			n = len(queues)
		}
		for i := 0; i < n; i++ {
			e := float64(rates[i]) / 255
			l := simclock.Duration(queues[i]) * simclock.Minute
			a.UpdateEta(e, l)
			if a.Eta() < 0.1-1e-12 || a.Eta() > 2.0+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
