// Package timefeat extracts the temporal features OrgLinear embeds:
// hour of day, weekday, and holiday indicators (Eq. 3 of the paper).
// The simulation epoch is hour 0 of a Monday. It also provides the
// smooth diurnal activity curve the scenario layer uses to shape
// time-of-day reclamation intensity.
package timefeat

import (
	"math"

	"github.com/sjtucitlab/gfs/internal/simclock"
)

// Features is the decoded temporal context of one timestamp.
type Features struct {
	// Hour is the hour of day in [0,24).
	Hour int
	// Weekday is the day of week in [0,7), 0 = Monday.
	Weekday int
	// Holiday reports whether the day is a holiday.
	Holiday bool
}

// Calendar resolves timestamps to features. HolidayDays lists
// zero-based day indices (from the epoch) that are holidays, modeling
// the business calendar effects the paper highlights.
type Calendar struct {
	HolidayDays map[int]bool
}

// NewCalendar creates a calendar with the given holiday day indices.
func NewCalendar(holidays ...int) *Calendar {
	m := make(map[int]bool, len(holidays))
	for _, d := range holidays {
		m[d] = true
	}
	return &Calendar{HolidayDays: m}
}

// At decodes the features of time t.
func (c *Calendar) At(t simclock.Time) Features {
	f := Features{
		Hour:    t.HourOfDay(),
		Weekday: t.Weekday(),
	}
	if c != nil && c.HolidayDays[t.DayIndex()] {
		f.Holiday = true
	}
	return f
}

// AtHour decodes the features of hour index h since the epoch.
func (c *Calendar) AtHour(h int) Features {
	return c.At(simclock.Time(h) * simclock.Time(simclock.Hour))
}

// HolidayIndex returns 1 for holidays and 0 otherwise, for embedding
// lookup.
func (f Features) HolidayIndex() int {
	if f.Holiday {
		return 1
	}
	return 0
}

// IsWeekend reports whether the weekday is Saturday or Sunday.
func (f Features) IsWeekend() bool { return f.Weekday >= 5 }

// Dims returns the embedding vocabulary sizes for (hour, weekday,
// holiday) features.
func Dims() (hours, weekdays, holiday int) { return 24, 7, 2 }

// DiurnalCurve is a smooth daily activity shape: a Gaussian bump of
// the given width (hours, standard deviation) centered on PeakHour,
// evaluated on the 24-hour circle. Weight is 1 at the peak and decays
// toward 0 at the antipodal hour; weekends are damped by their factor
// (1 = no damping). The scenario layer uses it to make spot
// reclamation pressure follow business hours.
type DiurnalCurve struct {
	// PeakHour is the hour of day [0,24) of maximum activity.
	PeakHour int
	// Width is the bump's standard deviation in hours (defaults to
	// 4 when ≤ 0).
	Width float64
	// WeekendFactor scales the weight on Saturdays and Sundays; zero
	// (and 1) mean no damping.
	WeekendFactor float64
}

// WeightAt evaluates the curve at time t, in [0,1].
func (c DiurnalCurve) WeightAt(t simclock.Time) float64 {
	width := c.Width
	if width <= 0 {
		width = 4
	}
	// Circular hour distance: 23:00 is one hour from 00:00.
	d := math.Abs(float64(t.HourOfDay() - c.PeakHour))
	if d > 12 {
		d = 24 - d
	}
	w := math.Exp(-d * d / (2 * width * width))
	if t.Weekday() >= 5 && c.WeekendFactor > 0 {
		w *= c.WeekendFactor
	}
	return w
}
