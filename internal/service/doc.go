// Package service implements the gfsd daemon core: a long-running
// multi-tenant HTTP/JSON front end over the gfs simulation engine.
//
// Clients POST a RunSpec (scheduler, cluster shape, scenario,
// federation/route, plus an inline, uploaded or streamed trace) to
// /v1/sessions; each accepted spec becomes a session queued onto a
// bounded shared worker pool. Sessions move through the states
// queued → running → done/failed/cancelled and are served back as:
//
//	GET    /v1/sessions           list all sessions
//	GET    /v1/sessions/{id}          status + live progress
//	GET    /v1/sessions/{id}/events   live event stream (NDJSON or SSE)
//	GET    /v1/sessions/{id}/report   collected report (text/jsonl/csv/prom)
//	DELETE /v1/sessions/{id}          cancel (idempotent)
//	GET    /metrics                   daemon counters + per-session snapshots
//
// A RunSpec is the runspec.Spec gfsim lowers its flags onto, and a
// session executes it through the same builder and runner
// (internal/runspec), so this package is transport only. Cancellation
// rides the engine's context plumbing: the simulation checks the
// session context once per simulator step, so a DELETE lands within
// one step. A run that panics is recovered by that runner and fails
// only its own session. Event streaming is backpressure-safe:
// each session buffers its event stream in a bounded ring, and a
// client that falls off the tail receives a synthetic "gap" record
// counting the events it missed instead of stalling the simulation.
//
// Runs are deterministic: the same spec (and trace) produces
// byte-identical reports regardless of worker count or concurrent
// sessions, because every session builds all of its state from
// scratch — the property RunBatch establishes and the CI determinism
// gate asserts.
package service
