// Package org synthesizes per-organization GPU demand series with
// the structure the paper observes in production (Fig. 4 and §3.2):
// multi-scale periodicity (diurnal peaks from 10:00 to 24:00, weekly
// dips), organization-specific volatility, bursts, and business
// features (cluster affiliation, GPU model).
package org

import (
	"math"
	"math/rand"

	"github.com/sjtucitlab/gfs/internal/timefeat"
)

// Config parameterizes one organization's demand process.
type Config struct {
	// Name identifies the organization.
	Name string
	// Cluster and GPUModel are the business attributes V_o the
	// paper feeds through embeddings (Eq. 4).
	Cluster  string
	GPUModel string

	// Base is the mean demand level in GPUs.
	Base float64
	// DiurnalAmp is the amplitude of the daily cycle in GPUs.
	DiurnalAmp float64
	// PeakStart and PeakEnd bound the daily high-demand window in
	// hours (the paper observes peaks 10:00–24:00).
	PeakStart, PeakEnd int
	// WeekendDip is the fractional demand reduction on weekends
	// (0.357 reproduces Organization C's 35.7% drop).
	WeekendDip float64
	// HolidayDip is the fractional reduction on holidays.
	HolidayDip float64
	// Noise is the standard deviation of Gaussian noise in GPUs.
	Noise float64
	// BurstProb is the per-hour probability of a demand burst.
	BurstProb float64
	// BurstAmp is the burst magnitude in GPUs.
	BurstAmp float64
	// Trend is a linear drift in GPUs per hour.
	Trend float64
}

// Series generates hours of hourly demand starting at hour index
// startHour, using cal for weekday/holiday context and rng for
// reproducible noise. Demand is clamped at 0.
func (c Config) Series(cal *timefeat.Calendar, startHour, hours int, rng *rand.Rand) []float64 {
	out := make([]float64, hours)
	for i := range out {
		out[i] = c.At(cal, startHour+i, rng)
	}
	return out
}

// At generates the demand at a single hour index.
func (c Config) At(cal *timefeat.Calendar, hour int, rng *rand.Rand) float64 {
	f := cal.AtHour(hour)
	v := c.Base + float64(c.Trend*float64(hour))
	// Smooth diurnal bump over the peak window.
	v += float64(c.DiurnalAmp * peakShape(f.Hour, c.PeakStart, c.PeakEnd))
	if f.IsWeekend() {
		v *= 1 - c.WeekendDip
	}
	if f.Holiday {
		v *= 1 - c.HolidayDip
	}
	if rng != nil {
		if c.Noise > 0 {
			v += float64(rng.NormFloat64() * c.Noise)
		}
		if c.BurstProb > 0 && rng.Float64() < c.BurstProb {
			v += float64(c.BurstAmp * (0.5 + float64(rng.Float64())))
		}
	}
	if v < 0 {
		v = 0
	}
	return v
}

// peakShape is a raised-cosine bump equal to ~1 inside [start,end)
// hours and ~0 outside, with smooth shoulders.
func peakShape(hour, start, end int) float64 {
	if start >= end {
		return 0
	}
	h := float64(hour) + 0.5
	s, e := float64(start), float64(end)
	mid := float64((s + e) / 2)
	half := (e - s) / 2
	d := math.Abs(h-mid) / half
	if d >= 1.3 {
		return 0
	}
	if d <= 0.7 {
		return 1
	}
	// Cosine roll-off between 0.7 and 1.3 of the half-width.
	return 0.5 * (1 + math.Cos(math.Pi*(d-0.7)/0.6))
}

// PresetA..PresetD reproduce the four organizations of Fig. 4.
// A: stable around 74–86 with occasional peaks.
// B: pronounced fluctuation between 67 and 90.
// C: strong weekly periodicity with a 35.7% weekend drop.
// D: moderate demand with bursts.
func PresetA() Config {
	return Config{Name: "OrgA", Cluster: "A", GPUModel: "A100",
		Base: 76, DiurnalAmp: 8, PeakStart: 10, PeakEnd: 24,
		Noise: 1.2, BurstProb: 0.02, BurstAmp: 4}
}

// PresetB returns Organization B's configuration.
func PresetB() Config {
	return Config{Name: "OrgB", Cluster: "B", GPUModel: "A100",
		Base: 70, DiurnalAmp: 16, PeakStart: 9, PeakEnd: 23,
		Noise: 3.0, BurstProb: 0.05, BurstAmp: 6}
}

// PresetC returns Organization C's configuration (weekly dip).
func PresetC() Config {
	return Config{Name: "OrgC", Cluster: "A", GPUModel: "A100",
		Base: 78, DiurnalAmp: 10, PeakStart: 10, PeakEnd: 22,
		WeekendDip: 0.357, Noise: 1.5}
}

// PresetD returns Organization D's configuration.
func PresetD() Config {
	return Config{Name: "OrgD", Cluster: "C", GPUModel: "A100",
		Base: 72, DiurnalAmp: 12, PeakStart: 11, PeakEnd: 24,
		HolidayDip: 0.5, Noise: 2.0, BurstProb: 0.03, BurstAmp: 8}
}

// Presets returns the four Fig. 4 organizations.
func Presets() []Config {
	return []Config{PresetA(), PresetB(), PresetC(), PresetD()}
}

// Panel generates aligned hourly series for several organizations,
// keyed by organization name, each derived from an independent
// deterministic stream seeded from seed.
func Panel(cfgs []Config, cal *timefeat.Calendar, startHour, hours int, seed int64) map[string][]float64 {
	out := make(map[string][]float64, len(cfgs))
	for i, c := range cfgs {
		rng := rand.New(rand.NewSource(seed + int64(i)*7919))
		out[c.Name] = c.Series(cal, startHour, hours, rng)
	}
	return out
}
