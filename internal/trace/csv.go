package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"

	"github.com/sjtucitlab/gfs/internal/simclock"
	"github.com/sjtucitlab/gfs/internal/task"
)

// csvHeader is the column layout of the on-disk trace format,
// mirroring the fields of the Alibaba cluster trace release.
var csvHeader = []string{
	"id", "org", "gpu_model", "type", "pods", "gpus_per_pod",
	"gang", "duration_s", "checkpoint_s", "submit_s",
}

// Encoder streams tasks into an output format one at a time, the
// write-side counterpart of Source. Callers must Flush once after the
// last Encode; encoders do not own the underlying writer.
type Encoder interface {
	// Encode appends one task to the stream.
	Encode(tk *task.Task) error
	// Flush writes any buffered output and returns the first error
	// seen.
	Flush() error
}

// NewCSVEncoder returns an Encoder producing the package's CSV
// interchange format. The header row is written lazily before the
// first task.
func NewCSVEncoder(w io.Writer) Encoder {
	return &csvEncoder{cw: csv.NewWriter(w)}
}

type csvEncoder struct {
	cw     *csv.Writer
	opened bool
	// rec is reused across Encode calls so steady-state encoding
	// allocates only the formatted fields.
	rec [10]string
}

func (e *csvEncoder) Encode(tk *task.Task) error {
	if !e.opened {
		if err := e.cw.Write(csvHeader); err != nil {
			return fmt.Errorf("trace: write header: %w", err)
		}
		e.opened = true
	}
	typ := "spot"
	if tk.Type == task.HP {
		typ = "hp"
	}
	e.rec = [10]string{
		strconv.Itoa(tk.ID),
		tk.Org,
		tk.GPUModel,
		typ,
		strconv.Itoa(tk.Pods),
		strconv.FormatFloat(tk.GPUsPerPod, 'g', -1, 64),
		strconv.FormatBool(tk.Gang),
		strconv.FormatInt(int64(tk.Duration), 10),
		strconv.FormatInt(int64(tk.CheckpointEvery), 10),
		strconv.FormatInt(int64(tk.Submit), 10),
	}
	if err := e.cw.Write(e.rec[:]); err != nil {
		return fmt.Errorf("trace: write task %d: %w", tk.ID, err)
	}
	return nil
}

func (e *csvEncoder) Flush() error {
	if !e.opened {
		// An empty trace still gets its header, so the output is a
		// valid (zero-task) trace file rather than an empty one.
		if err := e.cw.Write(csvHeader); err != nil {
			return fmt.Errorf("trace: write header: %w", err)
		}
		e.opened = true
	}
	e.cw.Flush()
	return e.cw.Error()
}

// WriteCSV serializes tasks in slice order.
func WriteCSV(w io.Writer, tasks []*task.Task) error {
	enc := NewCSVEncoder(w)
	for _, tk := range tasks {
		if err := enc.Encode(tk); err != nil {
			return err
		}
	}
	return enc.Flush()
}

// NewCSVSource returns a streaming decoder for the package's CSV
// interchange format. The header is read and checked immediately;
// records decode one at a time as the caller pulls, in constant
// memory. Decode errors carry the 1-based input line number and the
// offending column's name.
func NewCSVSource(r io.Reader) (Source, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	cr.FieldsPerRecord = len(csvHeader)
	hdr, err := cr.Read()
	if err == io.EOF {
		return nil, fmt.Errorf("trace: empty input")
	}
	if err != nil {
		return nil, fmt.Errorf("trace: read header: %w", err)
	}
	for i, want := range csvHeader {
		if hdr[i] != want {
			return nil, fmt.Errorf("trace: unexpected header %v (want %v)", hdr, csvHeader)
		}
	}
	return &csvSource{cr: cr}, nil
}

type csvSource struct {
	cr  *csv.Reader
	err error
}

func (s *csvSource) Next() (*task.Task, error) {
	if s.err != nil {
		return nil, s.err
	}
	rec, err := s.cr.Read()
	if err == io.EOF {
		s.err = io.EOF
		return nil, io.EOF
	}
	if err != nil {
		// encoding/csv structural errors (bad quoting, wrong field
		// count) already carry the line number.
		s.err = fmt.Errorf("trace: %w", err)
		return nil, s.err
	}
	line, _ := s.cr.FieldPos(0)
	tk, err := parseRecord(rec)
	if err != nil {
		s.err = fmt.Errorf("trace: line %d: %w", line, err)
		return nil, s.err
	}
	return tk, nil
}

func (s *csvSource) Close() error { return nil }

// columnError tags a field-level parse failure with its column name.
func columnError(col string, err error) error {
	return fmt.Errorf("column %s: %w", col, err)
}

// parseRecord decodes one data row of the interchange CSV. The record
// slice may be reused by the reader, so every field is converted (or
// copied) before return.
func parseRecord(rec []string) (*task.Task, error) {
	if len(rec) != len(csvHeader) {
		return nil, fmt.Errorf("want %d fields, got %d", len(csvHeader), len(rec))
	}
	id, err := strconv.Atoi(rec[0])
	if err != nil {
		return nil, columnError("id", err)
	}
	typ := task.Spot
	switch rec[3] {
	case "hp":
		typ = task.HP
	case "spot":
	default:
		return nil, columnError("type", fmt.Errorf("unknown type %q", rec[3]))
	}
	pods, err := strconv.Atoi(rec[4])
	if err != nil {
		return nil, columnError("pods", err)
	}
	gpus, err := strconv.ParseFloat(rec[5], 64)
	if err != nil {
		return nil, columnError("gpus_per_pod", err)
	}
	if math.IsNaN(gpus) || math.IsInf(gpus, 0) {
		return nil, columnError("gpus_per_pod", fmt.Errorf("non-finite value %v", gpus))
	}
	gang, err := strconv.ParseBool(rec[6])
	if err != nil {
		return nil, columnError("gang", err)
	}
	dur, err := strconv.ParseInt(rec[7], 10, 64)
	if err != nil {
		return nil, columnError("duration_s", err)
	}
	ckpt, err := strconv.ParseInt(rec[8], 10, 64)
	if err != nil {
		return nil, columnError("checkpoint_s", err)
	}
	submit, err := strconv.ParseInt(rec[9], 10, 64)
	if err != nil {
		return nil, columnError("submit_s", err)
	}
	tk := task.New(id, typ, pods, gpus, simclock.Duration(dur))
	tk.Org = rec[1]
	tk.GPUModel = rec[2]
	tk.Gang = gang
	tk.CheckpointEvery = simclock.Duration(ckpt)
	tk.Submit = simclock.Time(submit)
	if err := CheckTask(tk); err != nil {
		return nil, err
	}
	return tk, nil
}
