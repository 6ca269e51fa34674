package experiments

import (
	"reflect"
	"strings"
	"testing"
)

func TestNamedScenarioProfiles(t *testing.T) {
	s := tinyScale()
	for _, name := range ScenarioNames() {
		sc, err := s.NamedScenario(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sc.Len() == 0 {
			t.Fatalf("%s: empty scenario", name)
		}
	}
	if _, err := s.NamedScenario("no-such-storm"); err == nil {
		t.Fatal("unknown profile must error")
	}
}

func TestNamedScenarioDeterministic(t *testing.T) {
	s := tinyScale()
	for _, name := range []string{"zone-cascade", "random-storms"} {
		a, _ := s.NamedScenario(name)
		b, _ := s.NamedScenario(name)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: repeated builds differ", name)
		}
	}
}

func TestStormExperiment(t *testing.T) {
	rows, err := StormExperiment(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	// (1 calm + len(profiles)) scenarios × 2 schedulers.
	want := (1 + len(ScenarioNames())) * 2
	if len(rows) != want {
		t.Fatalf("rows = %d, want %d", len(rows), want)
	}
	byKey := map[string]StormRow{}
	for _, r := range rows {
		byKey[r.Scenario+"/"+r.Scheduler] = r
		if r.AllocationRate <= 0 {
			t.Fatalf("%s/%s: degenerate allocation", r.Scenario, r.Scheduler)
		}
	}
	// Storms must actually stress the cluster: the diurnal storm
	// raises GFS's eviction rate over the calm run.
	calm := byKey["none/GFS"]
	storm := byKey["diurnal-storm/GFS"]
	if storm.EvictionRate <= calm.EvictionRate {
		t.Fatalf("diurnal storm eviction %v not above calm %v",
			storm.EvictionRate, calm.EvictionRate)
	}
	if out := FormatStorm(rows); !strings.Contains(out, "diurnal-storm") {
		t.Fatal("format missing scenario column")
	}
}
