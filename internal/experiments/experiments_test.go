package experiments

import (
	"math"
	"strings"
	"testing"
)

// tinyScale trims estimator training so the full experiment suite
// stays fast under `go test`. The cluster keeps SmallScale's 128
// GPUs: smaller pools make eviction rates too noisy to assert on.
func tinyScale() SimScale {
	s := SmallScale()
	s.TrainDays = 7
	s.OrgLinearEpochs = 4
	return s
}

func TestTable5ShapeAndOrdering(t *testing.T) {
	rows, err := Table5(tinyScale(), 2)
	if err != nil {
		t.Fatal(err)
	}
	wantOrder := []string{"YARN-CS", "Chronus", "Lyra", "FGD", "GFS"}
	if len(rows) != len(wantOrder) {
		t.Fatalf("rows = %d, want %d", len(rows), len(wantOrder))
	}
	for i, r := range rows {
		if r.Scheduler != wantOrder[i] {
			t.Fatalf("row %d = %s, want %s", i, r.Scheduler, wantOrder[i])
		}
		if r.HPJCT <= 0 || r.SpotJCT <= 0 {
			t.Fatalf("%s: nonpositive JCT", r.Scheduler)
		}
		if r.Scheduler == "Chronus" {
			if !math.IsNaN(r.EvictionRate) {
				t.Fatal("Chronus eviction rate should be N/A")
			}
		} else if r.EvictionRate < 0 || r.EvictionRate > 1 {
			t.Fatalf("%s: eviction rate %v", r.Scheduler, r.EvictionRate)
		}
	}
	var gfs, yarn SchedRow
	for _, r := range rows {
		switch r.Scheduler {
		case "GFS":
			gfs = r
		case "YARN-CS":
			yarn = r
		}
	}
	// The paper's headline: GFS cuts spot evictions and queuing
	// versus the reactive baseline.
	if gfs.EvictionRate > yarn.EvictionRate+1e-9 {
		t.Fatalf("GFS eviction %v should not exceed YARN-CS %v",
			gfs.EvictionRate, yarn.EvictionRate)
	}
	if gfs.HPJQT > yarn.HPJQT*2+60 {
		t.Fatalf("GFS HP JQT %v should stay near YARN-CS %v", gfs.HPJQT, yarn.HPJQT)
	}
	out := FormatTable5(rows)
	if !strings.Contains(out, "GFS") || !strings.Contains(out, "-") {
		t.Fatalf("format:\n%s", out)
	}
}

func TestTable6Sensitivity(t *testing.T) {
	rows, err := Table6(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[0].H != 1 || rows[1].H != 2 || rows[2].H != 4 {
		t.Fatalf("rows %+v", rows)
	}
	for _, r := range rows {
		if r.EvictionRate < 0 || r.EvictionRate > 0.5 {
			t.Fatalf("H=%d eviction %v out of band", r.H, r.EvictionRate)
		}
		if r.SpotJCT <= 0 {
			t.Fatalf("H=%d spot JCT %v", r.H, r.SpotJCT)
		}
	}
	if out := FormatTable6(rows); !strings.Contains(out, "H") {
		t.Fatal("format")
	}
}

func TestTable8GDEAblation(t *testing.T) {
	rows, err := Table8(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Variant != "GFS-e" || rows[1].Variant != "GFS" {
		t.Fatalf("rows %+v", rows)
	}
	// The previous-week-peak forecast over-reserves, starving spot
	// tasks. JQT averages finished tasks only, so it compares only
	// when neither row left spot work unfinished; otherwise GFS must
	// not leave more spot tasks unfinished than GFS-e.
	gfsE, full := rows[0], rows[1]
	if gfsE.UnfinishedSpot == 0 && full.UnfinishedSpot == 0 {
		if full.SpotJQT > gfsE.SpotJQT+1 {
			t.Fatalf("GFS spot JQT %v should beat GFS-e %v", full.SpotJQT, gfsE.SpotJQT)
		}
	} else if full.UnfinishedSpot > gfsE.UnfinishedSpot {
		t.Fatalf("GFS leaves %d spot tasks unfinished, GFS-e %d", full.UnfinishedSpot, gfsE.UnfinishedSpot)
	}
	if out := FormatAblation(rows); !strings.Contains(out, "GFS-e") || !strings.Contains(out, "unfin") {
		t.Fatal("format")
	}
}

func TestTable9SQAAblation(t *testing.T) {
	rows, err := Table9(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Variant != "GFS-d" || rows[1].Variant != "GFS" {
		t.Fatalf("rows %+v", rows)
	}
	for _, r := range rows {
		if r.SpotJCT <= 0 {
			t.Fatalf("%s: spot JCT %v", r.Variant, r.SpotJCT)
		}
	}
}

func TestTable10PTSAblation(t *testing.T) {
	rows, err := Table10(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"GFS-sp", "GFS-s", "GFS-p", "GFS"}
	for i, r := range rows {
		if r.Variant != want[i] {
			t.Fatalf("row %d = %s, want %s", i, r.Variant, want[i])
		}
	}
	// Full GFS should not evict more than the fully degraded
	// variant.
	if rows[3].EvictionRate > rows[0].EvictionRate+0.05 {
		t.Fatalf("GFS eviction %v vs GFS-sp %v", rows[3].EvictionRate, rows[0].EvictionRate)
	}
}

func TestTable1Pools(t *testing.T) {
	rows := Table1(tinyScale())
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	names := map[string]bool{}
	for _, r := range rows {
		names[r.Model] = true
		if r.AllocationRate <= 0 || r.AllocationRate > 1 {
			t.Fatalf("%s rate %v", r.Model, r.AllocationRate)
		}
	}
	for _, m := range []string{"A10", "A100", "A800", "H800"} {
		if !names[m] {
			t.Fatalf("missing pool %s", m)
		}
	}
	if out := FormatTable1(rows); !strings.Contains(out, "H800") {
		t.Fatal("format")
	}
}

func TestFigure2RegimeShift(t *testing.T) {
	d := Figure2(tinyScale())
	full24 := FullCardFraction(d.Pod2024)
	full20 := FullCardFraction(d.Pod2020)
	// 2024: ≈99% full cards; 2020: ≈20%.
	if full24 < 0.95 {
		t.Fatalf("2024 full-card fraction %v, want ≈1", full24)
	}
	if full20 > 0.4 {
		t.Fatalf("2020 full-card fraction %v, want ≈0.2", full20)
	}
	if len(d.Task2024) == 0 || len(d.Task2020) == 0 {
		t.Fatal("task CDFs missing")
	}
}

func TestFigure3GangQueuing(t *testing.T) {
	rows := Figure3(tinyScale())
	if len(rows) < 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	var q1, q8 float64
	var saw1, saw8 bool
	for _, r := range rows {
		if r.GPUs == 1 {
			q1, saw1 = r.MedianQueueH, true
		}
		if r.GPUs == 8 {
			q8, saw8 = r.MedianQueueH, true
		}
		if r.MedianRunH <= 0 {
			t.Fatalf("run hours %v", r.MedianRunH)
		}
	}
	if !saw1 || !saw8 {
		t.Fatal("1- and 8-GPU buckets expected")
	}
	// 8-GPU requests wait at least as long as 1-GPU requests.
	if q8+1e-9 < q1 {
		t.Fatalf("8-GPU queue %vh < 1-GPU %vh", q8, q1)
	}
}

func TestFigure4Panel(t *testing.T) {
	p := Figure4(1)
	if len(p) != 4 {
		t.Fatalf("orgs = %d", len(p))
	}
	for name, s := range p {
		if len(s) != 168 {
			t.Fatalf("%s length %d", name, len(s))
		}
	}
}

func TestFigure5EvictionWeeks(t *testing.T) {
	s := tinyScale()
	d := Figure5(s, 2)
	if len(d.Weeks) != 2 {
		t.Fatalf("weeks = %d", len(d.Weeks))
	}
	anyEviction := false
	for _, r := range d.HourlyRate {
		if r < 0 || r > 1 {
			t.Fatalf("rate %v out of range", r)
		}
		if r > 0 {
			anyEviction = true
		}
	}
	if !anyEviction {
		t.Fatal("static-quota first-fit should evict under 2× spot load")
	}
	for _, w := range d.Weeks {
		if w.Max < w.Mid || w.Mid < w.Min {
			t.Fatalf("week summary disordered: %+v", w)
		}
	}
}

func TestFigure8Heatmaps(t *testing.T) {
	d := Figure8(tinyScale())
	if len(d) != 3 {
		t.Fatalf("clusters = %d", len(d))
	}
	var a, b float64
	for _, c := range d {
		if len(c.Alloc) == 0 || len(c.Alloc[0]) != 168 {
			t.Fatalf("cluster %s heatmap shape", c.Name)
		}
		for _, row := range c.Alloc {
			for _, v := range row {
				if v < 0 || v > 8 {
					t.Fatalf("alloc %v out of [0,8]", v)
				}
			}
		}
		switch c.Name {
		case "A":
			a = c.MeanRate
		case "B":
			b = c.MeanRate
		}
	}
	if b >= a {
		t.Fatalf("cluster B rate %v should be below A %v", b, a)
	}
}

func TestFigure9DeploymentImproves(t *testing.T) {
	rows, err := Figure9(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Individual pools are tiny at test scale (a single eviction
	// moves the rate by ~10 points); assert on the aggregate.
	var pre, post float64
	for _, r := range rows {
		pre += r.EvictionPre
		post += r.EvictionPost
		if r.AllocPre <= 0 || r.AllocPost <= 0 {
			t.Fatalf("%s: degenerate allocation %v/%v", r.Model, r.AllocPre, r.AllocPost)
		}
	}
	if post > pre+0.10 {
		t.Fatalf("aggregate eviction worsened: pre %v post %v", pre, post)
	}
	if out := FormatFigure9(rows); !strings.Contains(out, "A100") {
		t.Fatal("format")
	}
}

func TestMonthlyBenefitPaperDeltas(t *testing.T) {
	total, report := MonthlyBenefit(nil)
	if total < 459715*0.7 || total > 459715*1.3 {
		t.Fatalf("benefit $%.0f too far from $459,715", total)
	}
	if !strings.Contains(report, "Total") {
		t.Fatal("report missing total")
	}
}

// TestReportExperiment: the report experiment produces both reports,
// with the GFS cost ledger priced against the baseline's achieved
// per-pool allocation rates.
func TestReportExperiment(t *testing.T) {
	d, err := ReportExperiment(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if d.Baseline == nil || d.Baseline.Summary == nil {
		t.Fatal("missing baseline report")
	}
	if d.GFS == nil || d.GFS.Summary == nil || d.GFS.Cost == nil {
		t.Fatal("missing GFS report sections")
	}
	if len(d.GFS.Cost.Pools) == 0 {
		t.Fatal("empty cost ledger")
	}
	pool := d.GFS.Cost.Pools[0]
	if base := d.Baseline.Cost.Pools[0].Rate; pool.BaselineRate != base {
		t.Fatalf("GFS ledger baseline %v != baseline run rate %v", pool.BaselineRate, base)
	}
	if out := FormatReport(d); !strings.Contains(out, "cost total") {
		t.Fatalf("FormatReport missing ledger:\n%s", out)
	}
}
