// Package pricing estimates the dollar value of allocation-rate
// improvements, reproducing the paper's monthly benefit figure
// (§4.3: "GFS yields roughly $459,715 in monthly benefits" on a
// >10,000-GPU cluster). The paper prices reclaimed capacity at cloud
// GPU list prices; we use public list prices and a spot realization
// margin (spot instances sell 60–90% below on-demand).
package pricing

import (
	"fmt"
	"sort"
)

// Table maps GPU model → on-demand hourly USD price per card.
type Table map[string]float64

// DefaultTable returns representative cloud list prices.
func DefaultTable() Table {
	return Table{
		"A10":  0.9,
		"A100": 2.9,
		"A800": 2.6,
		"H800": 4.1,
	}
}

// Pressure returns the model's reclamation-pressure multiplier: its
// on-demand price divided by the table's mean price. Pricier GPUs see
// proportionally more on-demand demand and therefore more spot
// reclamation — the scenario layer scales diurnal reclamation
// intensity by it. Unknown models and empty tables yield 1.
func (t Table) Pressure(model string) float64 {
	price, ok := t[model]
	if !ok {
		return 1
	}
	// Sum in sorted model order: float addition folds left to right,
	// so map order would leak into the mean.
	models := make([]string, 0, len(t))
	for m := range t {
		models = append(models, m)
	}
	sort.Strings(models)
	mean := 0.0
	for _, m := range models {
		mean += t[m]
	}
	mean /= float64(len(t))
	if mean <= 0 {
		return 1
	}
	return price / mean
}

// HoursPerMonth is the billing convention (730 h).
const HoursPerMonth = 730.0

// DefaultSpotMargin is the fraction of the on-demand price realized
// when reclaimed capacity is sold as spot (≈74% discount).
const DefaultSpotMargin = 0.26

// ReservedFactor is the fraction of the on-demand price paid for
// reserved/committed capacity (1-year commitment class discounts).
const ReservedFactor = 0.6

// Capacity tier names, in cost order. They name both what an
// autoscaler provisions (cluster.Pool.Tier) and how the cost
// collector prices the resulting GPU-hours.
const (
	// TierSpot is interruptible capacity bought at the spot margin.
	TierSpot = "spot"
	// TierOnDemand is uncommitted capacity at the list price.
	TierOnDemand = "on-demand"
	// TierReserved is committed capacity at the reserved discount;
	// nodes with an empty tier are priced as reserved too.
	TierReserved = "reserved"
)

// TierPrice returns the hourly USD price per card of model bought in
// the given tier: spot pays the list price times DefaultSpotMargin,
// on-demand pays list, and reserved (or an empty tier) pays list
// times ReservedFactor. Unknown models price at 0, unknown tiers at
// the on-demand price.
func TierPrice(tbl Table, model, tier string) float64 {
	price := tbl[model]
	switch tier {
	case TierSpot:
		return price * DefaultSpotMargin
	case "", TierReserved:
		return price * ReservedFactor
	default:
		return price
	}
}

// PoolDelta is the allocation-rate improvement of one GPU pool.
type PoolDelta struct {
	Model      string
	GPUs       int
	RateBefore float64
	RateAfter  float64
}

// Improvement returns the allocation-rate gain.
func (d PoolDelta) Improvement() float64 { return d.RateAfter - d.RateBefore }

// PoolBenefit prices one pool's reclaimed GPU-hours, the Fig. 9
// formula GPUs × Δrate × price × 730 h × DefaultSpotMargin in USD per
// month. The conversion rounds the product, so no platform fuses it
// into a caller's sum.
func PoolBenefit(gpus, delta, price float64) float64 {
	return float64(gpus * delta * price * HoursPerMonth * DefaultSpotMargin)
}

// MonthlyBenefit prices the reclaimed GPU-hours of each pool at
// DefaultTable's list prices: Σ_pool PoolBenefit.
func MonthlyBenefit(deltas []PoolDelta) float64 {
	tbl := DefaultTable()
	total := 0.0
	for _, d := range deltas {
		total += PoolBenefit(float64(d.GPUs), d.Improvement(), tbl[d.Model])
	}
	return total
}

// PaperDeltas returns the pool sizes and pre/post allocation rates of
// the production deployment (Table 1 pools, Fig. 9b improvements).
func PaperDeltas() []PoolDelta {
	return []PoolDelta{
		{Model: "A10", GPUs: 2000, RateBefore: 0.9174, RateAfter: 0.9868},  // +6.94%
		{Model: "A100", GPUs: 3200, RateBefore: 0.7434, RateAfter: 0.8837}, // +14.03%
		{Model: "A800", GPUs: 400, RateBefore: 0.6296, RateAfter: 0.8575},  // +22.79%
		{Model: "H800", GPUs: 1600, RateBefore: 0.6811, RateAfter: 0.7911}, // +11.00%
	}
}

// Format renders a benefit report.
func Format(deltas []PoolDelta) string {
	tbl := DefaultTable()
	out := fmt.Sprintf("%-6s %6s %8s %8s %8s %12s\n",
		"Model", "GPUs", "Pre", "Post", "Δ", "USD/month")
	for _, d := range deltas {
		out += fmt.Sprintf("%-6s %6d %7.2f%% %7.2f%% %+7.2f%% %12.0f\n",
			d.Model, d.GPUs, 100*d.RateBefore, 100*d.RateAfter,
			100*d.Improvement(), PoolBenefit(float64(d.GPUs), d.Improvement(), tbl[d.Model]))
	}
	out += fmt.Sprintf("Total: $%.0f/month (margin %.0f%%)\n",
		MonthlyBenefit(deltas), 100*DefaultSpotMargin)
	return out
}
