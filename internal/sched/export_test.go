package sched

// Handles on the unexported stepping calls for the external tests
// (package sched_test), which drive the simulator under PTS and the
// baselines: both import this package, so an in-package test cannot.
var (
	NewSimForTest = newSimulator
	InjectForTest = (*simulator).inject
	StepForTest   = (*simulator).step
	FinishForTest = (*simulator).finish
)
