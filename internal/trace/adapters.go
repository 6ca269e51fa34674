package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"github.com/sjtucitlab/gfs/internal/simclock"
	"github.com/sjtucitlab/gfs/internal/task"
)

// This file adapts external GPU-cluster trace schemas onto the
// simulator's task model. Adapters are lenient where the interchange
// codecs are strict: production trace dumps carry rows this simulator
// cannot replay (jobs that never ran, zero-GPU instances, open-ended
// rows), and an adapter's job is to stream past them while counting
// what it dropped (see Skipper). Structural problems — a missing
// required column, an unreadable stream — still fail loudly.
//
// External traces carry no priority column, no checkpoint interval
// and no gang flag, so an imported task is spot (the conservative
// reading of a trace with no priority column), checkpoint-free (every
// eviction loses all progress), and a gang only where the schema
// itself implies one.

// Skipper is implemented by adapter Sources that tolerate and drop
// unusable rows. Skipped reports how many data rows were dropped so
// far; read it after the stream is drained for the final count
// (gfstrace validate prints it).
type Skipper interface {
	// Skipped returns the number of data rows dropped so far.
	Skipped() int
}

// headerIndex maps wanted column names to their positions in an
// external CSV header, case-insensitively.
func headerIndex(hdr []string, want ...string) (map[string]int, error) {
	idx := make(map[string]int, len(hdr))
	for i, h := range hdr {
		idx[strings.ToLower(strings.TrimSpace(h))] = i
	}
	out := make(map[string]int, len(want))
	for _, w := range want {
		i, ok := idx[w]
		if !ok {
			return nil, fmt.Errorf("trace: header missing column %q (have %v)", w, hdr)
		}
		out[w] = i
	}
	return out, nil
}

// alibabaColumns are the pai_task_table columns of the Alibaba GPU
// cluster trace (cluster-trace-gpu-v2020) the adapter consumes.
var alibabaColumns = []string{"job_name", "inst_num", "status", "start_time", "end_time", "plan_gpu"}

// NewAlibabaSource streams the Alibaba GPU cluster trace's task table
// (cluster-trace-gpu-v2020, pai_task_table) onto the task model. The
// header must carry job_name, inst_num, status, start_time, end_time
// and plan_gpu (any order, extra columns ignored; gpu_type, when
// present, becomes the GPU model). Each Terminated row maps to one
// task: inst_num → pods, plan_gpu/100 → GPUs per pod (Alibaba
// expresses GPU requests in card-percent), end−start → duration,
// start → submission. Rows that never ran, have no GPU request, or
// carry unparsable numbers are skipped and counted, not fatal.
func NewAlibabaSource(r io.Reader) (Source, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	cr.FieldsPerRecord = -1
	hdr, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("trace: read alibaba header: %w", err)
	}
	cols, err := headerIndex(hdr, alibabaColumns...)
	if err != nil {
		return nil, err
	}
	// gpu_type is optional: present in the job table joins people
	// commonly feed in, absent from the raw task table.
	if opt, err := headerIndex(hdr, "gpu_type"); err == nil {
		cols["gpu_type"] = opt["gpu_type"]
	}
	a := &adapterSource{cr: cr}
	a.convert = func(rec []string) (*task.Task, bool) { return alibabaRow(rec, cols) }
	return a, nil
}

// alibabaRow converts one Alibaba task-table record; ok=false skips
// it.
func alibabaRow(rec []string, cols map[string]int) (*task.Task, bool) {
	field := func(name string) string {
		i, ok := cols[name]
		if !ok || i >= len(rec) {
			return ""
		}
		return strings.TrimSpace(rec[i])
	}
	if !strings.EqualFold(field("status"), "Terminated") {
		return nil, false // never completed: no replayable duration
	}
	start, err1 := strconv.ParseFloat(field("start_time"), 64)
	end, err2 := strconv.ParseFloat(field("end_time"), 64)
	planGPU, err3 := strconv.ParseFloat(field("plan_gpu"), 64)
	inst, err4 := strconv.Atoi(field("inst_num"))
	if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
		return nil, false
	}
	if end <= start || planGPU <= 0 || inst < 1 || start < 0 ||
		!finite(start) || !finite(end) || !finite(planGPU) {
		return nil, false
	}
	tk := task.New(0, task.Spot, inst, planGPU/100, simclock.Duration(end-start))
	tk.Org = strings.Clone(field("job_name"))
	tk.GPUModel = strings.Clone(field("gpu_type"))
	tk.Submit = simclock.Time(start)
	return tk, true
}

// phillyColumns are the flattened per-job columns of the Microsoft
// Philly trace (ATC '19) layout the adapter consumes; the job-id
// column spells either jobid or job_id across circulating dumps.
var phillyColumns = []string{"submitted_time", "num_gpus", "duration"}

// NewPhillySource streams a Philly-style per-job CSV (the flattened
// layout of the Microsoft philly-traces release: jobid (or job_id),
// submitted_time, num_gpus, duration, optionally vc and status) onto
// the task model. Times and durations are seconds. Jobs up to 8 GPUs
// become one pod; larger jobs split across the fewest 8-card
// machines with the traced GPU total conserved exactly, marked gang.
// Rows with a non-Pass status, zero GPUs or unparsable numbers are
// skipped and counted.
func NewPhillySource(r io.Reader) (Source, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	cr.FieldsPerRecord = -1
	hdr, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("trace: read philly header: %w", err)
	}
	cols, err := headerIndex(hdr, phillyColumns...)
	if err != nil {
		return nil, err
	}
	// The job-id column identifies the layout but its value is never
	// read; accept both spellings the sniffer recognizes.
	if _, err := headerIndex(hdr, "jobid"); err != nil {
		if _, err := headerIndex(hdr, "job_id"); err != nil {
			return nil, fmt.Errorf("trace: header missing column \"jobid\"/\"job_id\" (have %v)", hdr)
		}
	}
	for _, opt := range []string{"vc", "status"} {
		if m, err := headerIndex(hdr, opt); err == nil {
			cols[opt] = m[opt]
		}
	}
	p := &adapterSource{cr: cr}
	p.convert = func(rec []string) (*task.Task, bool) { return phillyRow(rec, cols) }
	return p, nil
}

// phillyRow converts one Philly record; ok=false skips it.
func phillyRow(rec []string, cols map[string]int) (*task.Task, bool) {
	field := func(name string) (string, bool) {
		i, ok := cols[name]
		if !ok || i >= len(rec) {
			return "", false
		}
		return strings.TrimSpace(rec[i]), true
	}
	if status, ok := field("status"); ok && status != "" && !strings.EqualFold(status, "Pass") {
		return nil, false // killed / failed attempts hold no useful duration
	}
	submitted, _ := field("submitted_time")
	gpusStr, _ := field("num_gpus")
	durStr, _ := field("duration")
	submit, err1 := strconv.ParseFloat(submitted, 64)
	gpus, err2 := strconv.ParseFloat(gpusStr, 64)
	dur, err3 := strconv.ParseFloat(durStr, 64)
	if err1 != nil || err2 != nil || err3 != nil {
		return nil, false
	}
	if gpus <= 0 || dur <= 0 || submit < 0 ||
		!finite(gpus) || !finite(dur) || !finite(submit) {
		return nil, false
	}
	pods, perPod, gang := 1, gpus, false
	if gpus > 8 {
		// Multi-machine job: split across the fewest 8-card machines,
		// conserving the traced request exactly (a 12-GPU job becomes
		// 2 × 6, not 2 × 8), and scheduled as a gang — the real trace
		// ran it as one job.
		pods = int(math.Ceil(gpus / 8))
		perPod = gpus / float64(pods)
		gang = true
	}
	tk := task.New(0, task.Spot, pods, perPod, simclock.Duration(dur))
	if vc, ok := field("vc"); ok {
		tk.Org = strings.Clone(vc)
	}
	tk.Gang = gang
	tk.Submit = simclock.Time(submit)
	return tk, true
}

// finite reports whether f is a usable finite number.
func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// adapterSource is the shared pull loop of the external-schema
// adapters: read a record, convert or skip, stamp sequential IDs.
type adapterSource struct {
	cr      *csv.Reader
	convert func(rec []string) (*task.Task, bool)
	nextID  int
	skipped int
	err     error
}

func (a *adapterSource) Next() (*task.Task, error) {
	if a.err != nil {
		return nil, a.err
	}
	for {
		rec, err := a.cr.Read()
		if err == io.EOF {
			a.err = io.EOF
			return nil, io.EOF
		}
		if err != nil {
			a.err = fmt.Errorf("trace: %w", err)
			return nil, a.err
		}
		tk, ok := a.convert(rec)
		if !ok {
			a.skipped++
			continue
		}
		tk.ID = a.nextID + 1
		// CheckTask is the final guard on the converters' lenient
		// parsing, keeping the Source contract: anything it rejects is
		// one more skipped row, never a malformed task downstream.
		if CheckTask(tk) != nil {
			a.skipped++
			continue
		}
		a.nextID++
		return tk, nil
	}
}

func (a *adapterSource) Close() error { return nil }

// Skipped implements Skipper.
func (a *adapterSource) Skipped() int { return a.skipped }
