package pricing

import (
	"math"
	"strings"
	"testing"
)

func TestMonthlyBenefitFormula(t *testing.T) {
	deltas := []PoolDelta{
		{Model: "A100", GPUs: 100, RateBefore: 0.5, RateAfter: 0.6},
		{Model: "A10", GPUs: 40, RateBefore: 0.2, RateAfter: 0.45},
	}
	got := MonthlyBenefit(deltas)
	tbl := DefaultTable()
	want := 100*(0.6-0.5)*tbl["A100"]*HoursPerMonth*DefaultSpotMargin +
		40*(0.45-0.2)*tbl["A10"]*HoursPerMonth*DefaultSpotMargin
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("benefit = %v, want %v", got, want)
	}
}

func TestMonthlyBenefitDefaultMargin(t *testing.T) {
	deltas := []PoolDelta{{Model: "A100", GPUs: 10, RateBefore: 0, RateAfter: 1}}
	got := MonthlyBenefit(deltas)
	want := 10 * 2.9 * HoursPerMonth * DefaultSpotMargin
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("benefit = %v, want %v", got, want)
	}
}

func TestPaperDeltasLandNearPaperFigure(t *testing.T) {
	got := MonthlyBenefit(PaperDeltas())
	// The paper reports ≈$459,715/month; our list prices and spot
	// margin should land in the same ballpark (±30%).
	if got < 459715*0.7 || got > 459715*1.3 {
		t.Fatalf("monthly benefit $%.0f too far from the paper's $459,715", got)
	}
}

func TestImprovementsMatchFig9(t *testing.T) {
	d := PaperDeltas()
	if math.Abs(d[0].Improvement()-0.0694) > 1e-9 {
		t.Fatalf("A10 Δ = %v, want 6.94%%", d[0].Improvement())
	}
	if math.Abs(d[1].Improvement()-0.1403) > 1e-9 {
		t.Fatalf("A100 Δ = %v, want 14.03%%", d[1].Improvement())
	}
	if math.Abs(d[2].Improvement()-0.2279) > 1e-9 {
		t.Fatalf("A800 Δ = %v, want 22.79%%", d[2].Improvement())
	}
}

func TestUnknownModelPricesZero(t *testing.T) {
	deltas := []PoolDelta{{Model: "unknown", GPUs: 100, RateBefore: 0, RateAfter: 1}}
	if got := MonthlyBenefit(deltas); got != 0 {
		t.Fatalf("unknown model should contribute 0, got %v", got)
	}
}

func TestFormat(t *testing.T) {
	out := Format(PaperDeltas())
	if !strings.Contains(out, "A100") || !strings.Contains(out, "Total: $") {
		t.Fatalf("format output incomplete:\n%s", out)
	}
}
