package gfs_test

// The examples in this file are the runnable snippets behind
// docs/traces.md — each cookbook entry compiles and runs as part of
// the test suite, so the trace-ingestion docs cannot drift from the
// API.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	gfs "github.com/sjtucitlab/gfs"
	"github.com/sjtucitlab/gfs/internal/baselines"
	"github.com/sjtucitlab/gfs/internal/task"
	"github.com/sjtucitlab/gfs/internal/trace"
)

// tinyTrace is a hand-written four-task workload used by the
// ingestion examples: deterministic, sorted by submission.
func tinyTrace() []*gfs.Task {
	mk := func(id int, typ gfs.TaskType, pods int, g float64, dur gfs.Duration, at gfs.Time) *gfs.Task {
		tk := task.New(id, typ, pods, g, dur)
		tk.Submit = at
		tk.Org = "OrgA"
		return tk
	}
	return []*gfs.Task{
		mk(1, gfs.HP, 1, 8, 2*gfs.Hour, 0),
		mk(2, gfs.Spot, 1, 1, gfs.Hour, gfs.Time(10*gfs.Minute)),
		mk(3, gfs.HP, 2, 4, 3*gfs.Hour, gfs.Time(2*gfs.Hour)),
		mk(4, gfs.Spot, 1, 2, gfs.Hour, gfs.Time(7*gfs.Hour)),
	}
}

// A trace round-trips through a gzipped file: WriteTraceFile picks
// CSV and compression from the extension, OpenTrace sniffs both back.
func ExampleOpenTrace() {
	path := filepath.Join(os.TempDir(), "gfs-example-trace.csv.gz")
	defer os.Remove(path)
	if err := gfs.WriteTraceFile(path, tinyTrace()); err != nil {
		panic(err)
	}
	src, err := gfs.OpenTrace(path)
	if err != nil {
		panic(err)
	}
	tasks, err := trace.Collect(src) // Collect materializes; replay would stream
	if err != nil {
		panic(err)
	}
	fmt.Println(len(tasks), "tasks,", tasks[0].GPUsPerPod, "GPUs per pod first")
	// Output: 4 tasks, 8 GPUs per pod first
}

// JSONL is the self-describing sibling of the CSV format: one task
// object per line, field names matching the CSV columns.
func ExampleWriteTraceJSONL() {
	var buf bytes.Buffer
	if err := gfs.WriteTraceJSONL(&buf, tinyTrace()[:1]); err != nil {
		panic(err)
	}
	fmt.Print(buf.String())
	// Output: {"id":1,"org":"OrgA","type":"hp","pods":1,"gpus_per_pod":8,"duration_s":7200,"submit_s":0}
}

// Any reader streams: OpenTraceReader sniffs gzip and format, so a
// pipe from stdin or an HTTP body ingests exactly like a file.
func ExampleOpenTraceReader() {
	csv := `id,org,gpu_model,type,pods,gpus_per_pod,gang,duration_s,checkpoint_s,submit_s
1,OrgB,A100,hp,1,4,false,3600,0,0
2,OrgB,A100,spot,2,8,true,7200,3600,60
`
	src, err := gfs.OpenTraceReader(strings.NewReader(csv), gfs.TraceFormatAuto)
	if err != nil {
		panic(err)
	}
	n, err := gfs.ValidateTrace(src)
	if err != nil {
		panic(err)
	}
	fmt.Println(n, "valid tasks")
	// Output: 2 valid tasks
}

// Transforms compose around any source: keep the first span of
// trace time and double the arrival rate — all streaming, nothing
// materialized.
func ExampleHeadWindowTrace() {
	src := trace.SliceSource(tinyTrace())
	src = gfs.HeadWindowTrace(src, 6*gfs.Hour) // drop the task at hour 7
	src = gfs.RateScaleTrace(src, 2)           // 2× arrival rate
	tasks, err := trace.Collect(src)
	if err != nil {
		panic(err)
	}
	for _, tk := range tasks {
		fmt.Printf("task %d at t=%ds\n", tk.ID, tk.Submit)
	}
	// Output:
	// task 1 at t=0s
	// task 2 at t=300s
	// task 3 at t=3600s
}

// An external trace dump rarely starts at the simulation epoch;
// RebaseTrace shifts it so the diurnal machinery sees hour 0.
func ExampleRebaseTrace() {
	late := tinyTrace()
	for _, tk := range late {
		tk.Submit += gfs.Time(100 * gfs.Day)
	}
	tasks, err := trace.Collect(gfs.RebaseTrace(trace.SliceSource(late), 0))
	if err != nil {
		panic(err)
	}
	fmt.Println("first submit:", tasks[0].Submit)
	// Output: first submit: 0
}

// Replay: WithTraceSource attaches a stream to an engine, and a
// RunBatch spec whose Setup returns the engine with a nil task slice
// replays it, as gfsim and gfsd do. The run pulls tasks one ahead of
// the clock, through the arrival cursor a preload takes — the trace is
// never loaded whole.
func ExampleWithTraceSource() {
	var buf bytes.Buffer
	if err := gfs.WriteTraceJSONL(&buf, tinyTrace()); err != nil {
		panic(err)
	}
	src, err := gfs.OpenTraceReader(&buf, gfs.TraceFormatJSONL)
	if err != nil {
		panic(err)
	}
	br := gfs.RunBatch([]gfs.BatchSpec{{Name: "replay", Setup: func() (*gfs.Engine, []*gfs.Task) {
		return gfs.NewEngine(gfs.NewCluster("A100", 4, 8),
			gfs.WithScheduler(baselines.NewYARNCS()),
			gfs.WithTraceSource(src),
		), nil
	}}})[0]
	if br.Err != nil {
		panic(br.Err)
	}
	res := br.Result
	fmt.Println(res.HP.Count+res.Spot.Count, "tasks replayed,", res.UnfinishedHP, "unfinished HP")
	// Output: 4 tasks replayed, 0 unfinished HP
}

// External schemas adapt on ingest: OpenTraceReader recognizes an
// Alibaba pai_task_table by its header. A row carries GPU requests in
// card-percent and instance counts; the adapter maps them to pods ×
// fractional GPUs, imports them as checkpoint-free spot work, and
// skips rows that never completed.
func ExampleOpenTraceReader_alibaba() {
	table := `job_name,task_name,inst_num,status,start_time,end_time,plan_cpu,plan_mem,plan_gpu,gpu_type
j1,worker,1,Terminated,100,1300,600,29,50,V100
j2,worker,4,Terminated,200,7400,600,29,100,V100
j3,worker,1,Running,300,,600,29,100,V100
`
	src, err := gfs.OpenTraceReader(strings.NewReader(table), gfs.TraceFormatAuto)
	if err != nil {
		panic(err)
	}
	tasks, err := trace.Collect(src)
	if err != nil {
		panic(err)
	}
	for _, tk := range tasks {
		fmt.Printf("%s: %d × %.1f GPU, %ds, %v\n",
			tk.Org, tk.Pods, tk.GPUsPerPod, tk.Duration, tk.Type)
	}
	// Output:
	// j1: 1 × 0.5 GPU, 1200s, spot
	// j2: 4 × 1.0 GPU, 7200s, spot
}

// Streaming statistics: the Table 3 summary of an arbitrarily large
// trace in one pass and O(1) memory.
func ExampleSummarizeTraceSource() {
	stats, err := gfs.SummarizeTraceSource(trace.SliceSource(tinyTrace()))
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d tasks, %.0f%% HP, %.0f GPU-h offered\n",
		stats.HPCount+stats.SpotCount, 100*stats.HPFrac, stats.TotalGPUSeconds/3600)
	// Output: 4 tasks, 50% HP, 43 GPU-h offered
}

// Validation fails fast with the line and column of the first bad
// record — the contract behind `gfstrace validate`.
func ExampleValidateTrace() {
	bad := `id,org,gpu_model,type,pods,gpus_per_pod,gang,duration_s,checkpoint_s,submit_s
1,OrgA,A100,hp,1,4,false,3600,0,0
2,OrgA,A100,hp,1,NaN,false,3600,0,60
`
	src, err := gfs.OpenTraceReader(strings.NewReader(bad), gfs.TraceFormatAuto)
	if err != nil {
		panic(err)
	}
	n, err := gfs.ValidateTrace(src)
	fmt.Println(n, "valid before:", err)
	// Output: 1 valid before: trace: line 3: column gpus_per_pod: non-finite value NaN
}
