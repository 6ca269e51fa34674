package gfs

import (
	"io"

	"github.com/sjtucitlab/gfs/internal/trace"
)

// Streaming trace-ingestion types, re-exported from the trace
// package.
type (
	// TraceSource is a pull-based trace iterator: Next returns tasks
	// one at a time in file order (io.EOF at the end), so arbitrarily
	// large traces flow through decoders, transforms and replay in
	// constant memory. See OpenTrace, WithTraceSource.
	TraceSource = trace.Source
	// TraceFormat identifies a trace encoding (CSV, JSONL, or an
	// external schema).
	TraceFormat = trace.Format
	// TraceEncoder streams tasks into an output format one at a time
	// (the write-side counterpart of TraceSource).
	TraceEncoder = trace.Encoder
)

// Trace encodings accepted by OpenTrace and the gfstrace CLI.
const (
	// TraceFormatAuto sniffs the encoding: gzip by magic bytes, JSONL
	// by a leading '{', CSV dialects by their header columns.
	TraceFormatAuto = trace.FormatAuto
	// TraceFormatCSV is the package's CSV interchange layout.
	TraceFormatCSV = trace.FormatCSV
	// TraceFormatJSONL is newline-delimited JSON, one task per line.
	TraceFormatJSONL = trace.FormatJSONL
)

// OpenTrace opens a trace file as a streaming TraceSource,
// transparently decompressing gzip (sniffed by magic bytes, not
// extension) and auto-detecting the format: the package's CSV and
// JSONL interchange layouts plus the Alibaba and Philly external
// schemas. Closing the source closes the file.
//
//	src, err := gfs.OpenTrace("trace.csv.gz")
//	...
//	res := gfs.RunBatch([]gfs.BatchSpec{{Setup: func() (*gfs.Engine, []*gfs.Task) {
//		return gfs.NewEngine(cluster, gfs.WithTraceSource(src)), nil
//	}}})[0]
func OpenTrace(path string) (TraceSource, error) { return trace.Open(path) }

// OpenTraceFormat is OpenTrace with an explicit format instead of
// sniffing.
func OpenTraceFormat(path string, f TraceFormat) (TraceSource, error) {
	return trace.OpenFormat(path, f)
}

// OpenTraceReader wraps an arbitrary stream (stdin, an HTTP body) as
// a TraceSource with the same gzip and format detection as OpenTrace.
// Closing the source does not close r.
func OpenTraceReader(r io.Reader, f TraceFormat) (TraceSource, error) {
	return trace.OpenReader(r, f)
}

// ParseTraceFormat resolves a format name (auto, csv, jsonl, alibaba,
// philly) as accepted by the CLIs.
func ParseTraceFormat(s string) (TraceFormat, error) { return trace.ParseFormat(s) }

// ParseTraceRegime resolves a regime name ("2024" or "2020") as
// accepted by the CLIs, rejecting anything else so a typo cannot
// silently fall back to the default era.
func ParseTraceRegime(s string) (TraceRegime, error) { return trace.ParseRegime(s) }

// TraceSkipper is implemented by lenient adapter sources (Alibaba,
// Philly) that drop unusable rows; Skipped reports how many.
type TraceSkipper = trace.Skipper

// RebaseTrace shifts every submission time by a constant offset so
// the first task submits at start. External traces rarely begin at
// the simulation epoch; rebasing to 0 aligns them with the diurnal
// machinery, which assumes the epoch is midnight.
func RebaseTrace(src TraceSource, start Time) TraceSource { return trace.Rebase(src, start) }

// RateScaleTrace divides every submission time by factor: factor 2
// replays the trace at twice the arrival rate, 0.5 at half.
// Durations are untouched.
func RateScaleTrace(src TraceSource, factor float64) TraceSource {
	return trace.RateScale(src, factor)
}

// HeadWindowTrace keeps only the first span of trace time, measured
// from the first task's own submission — the window that works on
// dumps anchored at any epoch (gfstrace convert -window).
func HeadWindowTrace(src TraceSource, span Duration) TraceSource {
	return trace.HeadWindow(src, span)
}

// SortTraceBySubmit reorders a stream by submission time. It
// materializes the trace (the one non-constant-memory transform) and
// exists as the escape hatch for external dumps that are not already
// sorted, which replay requires.
func SortTraceBySubmit(src TraceSource) TraceSource { return trace.SortBySubmit(src) }

// ValidateTrace drains a source, checking every task's fields and the
// stream's submission-time ordering, and returns the number of valid
// tasks. The first malformed task or decode error is returned with
// its position.
func ValidateTrace(src TraceSource) (int, error) { return trace.Validate(src) }

// SummarizeTraceSource computes Table 3-style workload statistics in
// one streaming pass over a source, in O(1) memory.
func SummarizeTraceSource(src TraceSource) (TraceStats, error) {
	return trace.SummarizeSource(src)
}

// WriteTraceJSONL writes a trace as newline-delimited JSON, the
// self-describing sibling of the CSV interchange format.
func WriteTraceJSONL(w io.Writer, tasks []*Task) error { return trace.WriteJSONL(w, tasks) }

// WriteTraceFile writes a trace to path, choosing CSV or JSONL from
// the extension and gzip-compressing when the path ends in .gz — the
// write-side counterpart of OpenTrace.
func WriteTraceFile(path string, tasks []*Task) error { return trace.WriteFile(path, tasks) }

// NewTraceEncoder builds a streaming encoder for an explicit writable
// format (TraceFormatCSV or TraceFormatJSONL). Call Flush once after
// the last Encode.
func NewTraceEncoder(w io.Writer, f TraceFormat) (TraceEncoder, error) {
	return trace.NewEncoderFormat(w, f)
}

// CreateTraceFileEncoder creates path for streaming trace output
// (format from f, or the extension under TraceFormatAuto; .gz layers
// gzip) and returns the encoder plus a close function that flushes
// encoder, gzip trailer and file in order. Call close exactly once
// after the last Encode.
func CreateTraceFileEncoder(path string, f TraceFormat) (TraceEncoder, func() error, error) {
	return trace.CreateFileEncoder(path, f)
}
