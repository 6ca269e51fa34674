package lint

// Module is the import path of this repository's module. The
// classification table below keys on full import paths so a vendored
// or forked copy fails loudly rather than silently un-classifying.
const Module = "github.com/sjtucitlab/gfs"

// Class says which determinism rules a package must obey. The zero
// Class (any package missing from Table) runs nothing: the contract
// is opt-in per package, and the table — not per-file whitelists — is
// the single place coverage is decided.
type Class struct {
	MapIter   bool
	WallClock bool
	Goroutine bool
	EventEmit bool
}

// enables reports whether the named analyzer runs for this class.
func (c Class) enables(name string) bool {
	switch name {
	case "mapiter":
		return c.MapIter
	case "wallclock":
		return c.WallClock
	case "goroutine":
		return c.Goroutine
	case "eventemit":
		return c.EventEmit
	}
	return false
}

// simCore is the strictest class: the packages that execute inside
// the event loop, where a single unordered iteration or wall-clock
// read shows up as a golden-corpus byte diff.
var simCore = Class{MapIter: true, WallClock: true, Goroutine: true, EventEmit: true}

// Table classifies every determinism-critical package. Packages not
// listed here (forecast training, experiments, CLIs, test scaffolding)
// are outside the static contract; the dynamic golden corpus still
// covers whatever they feed into a run.
var Table = map[string]Class{
	// The public engine wraps the simulator's event path: observers,
	// collectors, report assembly, scenario composition. RunBatch's
	// worker fan-out lives here (deterministic by merge order, not
	// execution order), so the goroutine rule stays off; everything
	// ordering-sensitive is on.
	Module: {MapIter: true, WallClock: true, EventEmit: true},

	// The simulator core proper.
	Module + "/internal/sched":     simCore,
	Module + "/internal/simclock":  simCore,
	Module + "/internal/cluster":   simCore,
	Module + "/internal/pts":       simCore,
	Module + "/internal/baselines": simCore,
	Module + "/internal/autoscale": simCore,
	Module + "/internal/core":      simCore,

	// The daemon is wall-clock territory by trade (TTLs, TTFE
	// latency), but every read goes through the injectable Clock seam
	// in clock.go, so the wallclock rule covers its deterministic
	// sub-paths too: a stray time.Now outside the seam is a bug. Map
	// iteration order never reaches a run's output here (sessions are
	// listed via the ordered slice), so mapiter stays off.
	Module + "/internal/service": {WallClock: true},

	// The spec→engine builder both binaries run through: it holds the
	// name tables as maps and decides every option of a run, so an
	// ordered map range or a wall-clock read here would reach the
	// output of gfsim and gfsd alike.
	Module + "/internal/runspec": {MapIter: true, WallClock: true},

	// The packages that feed every run — the workload generator and
	// its demand panels, the quota loop and its estimator, the
	// statistics the collectors build on, the price table. They start
	// no goroutine and emit no event, but a value they compute in map
	// order or from the wall clock reaches a run's output.
	Module + "/internal/gde":      {MapIter: true, WallClock: true},
	Module + "/internal/org":      {MapIter: true, WallClock: true},
	Module + "/internal/pricing":  {MapIter: true, WallClock: true},
	Module + "/internal/sqa":      {MapIter: true, WallClock: true},
	Module + "/internal/stats":    {MapIter: true, WallClock: true},
	Module + "/internal/task":     {MapIter: true, WallClock: true},
	Module + "/internal/timefeat": {MapIter: true, WallClock: true},
	Module + "/internal/trace":    {MapIter: true, WallClock: true},
}
