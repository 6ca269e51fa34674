package gde

import (
	"math"
	"strings"
	"testing"

	"github.com/sjtucitlab/gfs/internal/forecast"
	"github.com/sjtucitlab/gfs/internal/org"
	"github.com/sjtucitlab/gfs/internal/timefeat"
)

func smallConfig() Config {
	return Config{History: 48, Horizon: 4, Model: forecast.NaivePeak{}}
}

func panel(hours int) map[string][]float64 {
	cal := timefeat.NewCalendar()
	return org.Panel(org.Presets(), cal, 0, hours, 3)
}

func TestTrainAndForecastShapes(t *testing.T) {
	e := New(smallConfig())
	if e.Fitted() {
		t.Fatal("not fitted yet")
	}
	if err := e.Train(panel(24*7), 0); err != nil {
		t.Fatal(err)
	}
	if !e.Fitted() {
		t.Fatal("should be fitted")
	}
	hist := make([]float64, 48)
	for i := range hist {
		hist[i] = 50
	}
	mu, sigma := e.Forecast("OrgA", hist, 100)
	if len(mu) != 4 || len(sigma) != 4 {
		t.Fatalf("shapes %d/%d, want 4/4", len(mu), len(sigma))
	}
}

func TestTrainErrors(t *testing.T) {
	e := New(smallConfig())
	if err := e.Train(nil, 0); err == nil {
		t.Fatal("empty panel should error")
	}
	short := map[string][]float64{"X": make([]float64, 10)}
	if err := e.Train(short, 0); err == nil {
		t.Fatal("too-short panel should error")
	}
}

// TestTrainRejectsNonFiniteDemand trains the default OrgLinear GDE on
// a panel holding one NaN or ±Inf. That used to fit every parameter to
// NaN, so every forecast was NaN and SQA counted the org's demand as 0;
// now Train fails and the estimator stays unfitted.
func TestTrainRejectsNonFiniteDemand(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		p := panel(24 * 7)
		p["OrgB"][100] = bad
		e := New(Config{History: 48, Horizon: 4})
		err := e.Train(p, 0)
		if err == nil || !strings.Contains(err.Error(), "not finite") {
			t.Fatalf("Train with %v in the panel: error %v, want a non-finite value error", bad, err)
		}
		if e.Fitted() {
			t.Fatalf("Train with %v in the panel left the estimator fitted", bad)
		}
	}
}

func TestOrgIDsDeterministic(t *testing.T) {
	e := New(smallConfig())
	if err := e.Train(panel(24*7), 0); err != nil {
		t.Fatal(err)
	}
	// Sorted name order: OrgA=0, OrgB=1, OrgC=2, OrgD=3.
	if e.orgIDs["OrgA"].OrgID != 0 || e.orgIDs["OrgD"].OrgID != 3 {
		t.Fatalf("org ids: %+v", e.orgIDs)
	}
}

// TestUnknownOrgForecastsWithoutRegistering: a trained estimator is
// shared read-only across batch workers, so asking about an org unseen
// in training must not write, and every unseen org resolves alike.
func TestUnknownOrgForecastsWithoutRegistering(t *testing.T) {
	e := New(smallConfig())
	if err := e.Train(panel(24*7), 0); err != nil {
		t.Fatal(err)
	}
	hist := make([]float64, 48)
	mu, _ := e.Forecast("Mystery", hist, 0)
	if len(mu) != 4 {
		t.Fatal("unknown org should still forecast")
	}
	if _, ok := e.orgIDs["Mystery"]; ok || len(e.orgIDs) != 4 {
		t.Fatalf("lookup of an unknown org wrote the id table: %+v", e.orgIDs)
	}
	if a, b := e.meta("Mystery"), e.meta("Other"); a != b || a.OrgID != 4 {
		t.Fatalf("unseen orgs resolve to %+v and %+v, want both OrgID 4", a, b)
	}
}

func TestHistoryPaddingAndTruncation(t *testing.T) {
	e := New(smallConfig())
	// Short history pads with the first value.
	out := e.fitHistory([]float64{5, 6})
	if len(out) != 48 {
		t.Fatalf("padded length %d", len(out))
	}
	if out[0] != 5 || out[45] != 5 || out[46] != 5 || out[47] != 6 {
		t.Fatalf("padding wrong: %v...%v", out[0], out[47])
	}
	// Long history keeps the tail.
	long := make([]float64, 100)
	for i := range long {
		long[i] = float64(i)
	}
	out = e.fitHistory(long)
	if out[0] != 52 || out[47] != 99 {
		t.Fatalf("truncation wrong: %v..%v", out[0], out[47])
	}
	// Empty history pads with zeros.
	out = e.fitHistory(nil)
	if len(out) != 48 || out[0] != 0 {
		t.Fatal("empty history should pad zeros")
	}
}

func TestNaivePeakForecastTracksPeak(t *testing.T) {
	e := New(smallConfig())
	if err := e.Train(panel(24*7), 0); err != nil {
		t.Fatal(err)
	}
	hist := make([]float64, 48)
	for i := range hist {
		hist[i] = 10
	}
	hist[20] = 77
	mu, _ := e.Forecast("OrgA", hist, 0)
	for _, v := range mu {
		if math.Abs(v-77) > 1e-9 {
			t.Fatalf("naive peak forecast = %v, want 77", v)
		}
	}
}

func TestOrgLinearBackedEstimator(t *testing.T) {
	e := New(Config{History: 48, Horizon: 4, Model: forecast.NewOrgLinear(forecast.OrgLinearConfig{Epochs: 10})})
	if err := e.Train(panel(24*14), 0); err != nil {
		t.Fatal(err)
	}
	cal := timefeat.NewCalendar()
	fresh := org.PresetA().Series(cal, 24*14, 48, nil)
	mu, sigma := e.Forecast("OrgA", fresh, 24*14)
	if len(mu) != 4 {
		t.Fatal("horizon")
	}
	for i := range mu {
		// Demand forecasts for Org A (base ≈76) should land in a
		// plausible band, and σ must be positive.
		if mu[i] < 30 || mu[i] > 130 {
			t.Fatalf("mu[%d] = %v implausible for OrgA", i, mu[i])
		}
		if sigma[i] <= 0 {
			t.Fatal("sigma must be positive")
		}
	}
}
