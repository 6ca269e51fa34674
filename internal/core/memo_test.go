package core

import (
	"math"
	"testing"

	"github.com/sjtucitlab/gfs/internal/cluster"
	"github.com/sjtucitlab/gfs/internal/forecast"
	"github.com/sjtucitlab/gfs/internal/gde"
	"github.com/sjtucitlab/gfs/internal/org"
	"github.com/sjtucitlab/gfs/internal/sched"
	"github.com/sjtucitlab/gfs/internal/simclock"
	"github.com/sjtucitlab/gfs/internal/timefeat"
)

// recorder counts and keeps every example the estimator asks its
// model to forecast.
type recorder struct {
	forecast.Distributional
	calls []forecast.Example
}

func (r *recorder) PredictDist(ex forecast.Example) (mu, sigma []float64) {
	r.calls = append(r.calls, ex)
	return r.Distributional.PredictDist(ex)
}

// TestQuotaForecastsOncePerHour drives one System through three runs
// of 300 s ticks, the way the simulator does: each org's series gains
// its next hourly value at a rollover, and a new organization appears
// at the second one. Every tick's quota must be bit-identical to a
// fresh System's, the memoized System must ask the model exactly once
// per org per hour, and every forecast must start History hours
// before the tick's hour. The second and third runs restart at hour 0
// with fresh series; the third starts with the same hour and series
// lengths as the second ended with, so only series identity tells the
// runs apart.
func TestQuotaForecastsOncePerHour(t *testing.T) {
	const history = 48 // a non-default window: StartHour errors show
	rec := &recorder{Distributional: forecast.NewOrgLinear(forecast.OrgLinearConfig{Epochs: 2})}
	est := gde.New(gde.Config{History: history, Horizon: 4, Model: rec})
	panel := org.Panel(org.Presets(), timefeat.NewCalendar(), 0, 24*7, 5)
	if err := est.Train(panel, 0); err != nil {
		t.Fatal(err)
	}
	cl := cluster.NewHomogeneous("A100", 100, 8)
	opts := Options{Estimator: est, DisableEtaFeedback: true}
	sys := New(opts)
	tick := 5 * simclock.Minute

	for _, run := range []struct {
		hours int
		scale float64
	}{{4, 1}, {1, 1}, {1, 2}} {
		demand := map[string][]float64{}
		for name, s := range panel {
			for _, v := range s[:history] {
				demand[name] = append(demand[name], run.scale*v)
			}
		}
		hourOrgs := map[int]int{} // hour → orgs forecast
		rec.calls = rec.calls[:0]
		for now := simclock.Time(0); now < simclock.Time(run.hours)*simclock.Time(simclock.Hour); now = now.Add(tick) {
			hour := now.HourIndex()
			if now > 0 && now%simclock.Time(simclock.Hour) == 0 {
				for name, s := range demand {
					demand[name] = append(s, s[len(s)-1]+float64(hour))
				}
				if hour == 2 {
					demand["Newcomer"] = []float64{7}
				}
			}
			hourOrgs[hour] = len(demand)
			ctx := &sched.QuotaContext{Now: now, Cluster: cl, OrgDemand: demand, HourIndex: hour}
			before := len(rec.calls)
			got := sys.Quota.Quota(ctx)
			memoized := len(rec.calls)
			want := New(opts).Quota.Quota(ctx)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("run ×%v hour %d t=%v: memoized quota %v, fresh %v", run.scale, hour, now, got, want)
			}
			for _, ex := range rec.calls[before:] {
				if ex.StartHour+len(ex.History) != hour {
					t.Fatalf("hour %d: forecast starts at %d with %d hours of history", hour, ex.StartHour, len(ex.History))
				}
			}
			rec.calls = rec.calls[:memoized] // count the memoized System's calls only
		}
		perHour := map[int]int{}
		for _, ex := range rec.calls {
			perHour[ex.StartHour+history]++
		}
		for hour, n := range hourOrgs {
			if perHour[hour] != n {
				t.Fatalf("run ×%v hour %d: %d forecasts for %d orgs", run.scale, hour, perHour[hour], n)
			}
		}
	}
}
