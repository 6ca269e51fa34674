package trace

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"strings"
	"testing"

	"github.com/sjtucitlab/gfs/internal/simclock"
	"github.com/sjtucitlab/gfs/internal/task"
)

// genTrace builds a small deterministic trace for round-trip tests.
func genTrace(seed int64, regime Regime) []*task.Task {
	cfg := Default()
	cfg.Seed = seed
	cfg.Days = 1
	cfg.ClusterGPUs = 96
	cfg.Regime = regime
	return Generate(cfg)
}

// sameTask compares every serialized field.
func sameTask(a, b *task.Task) bool {
	return a.ID == b.ID && a.Org == b.Org && a.GPUModel == b.GPUModel &&
		a.Type == b.Type && a.Pods == b.Pods && a.GPUsPerPod == b.GPUsPerPod &&
		a.Gang == b.Gang && a.Duration == b.Duration &&
		a.CheckpointEvery == b.CheckpointEvery && a.Submit == b.Submit
}

// TestRoundTripIdentity: Write → Source → Collect is the identity on
// generated traces, across both regimes and several seeds, for both
// codecs, plain and gzipped. This is the property the interchange
// formats exist to guarantee.
func TestRoundTripIdentity(t *testing.T) {
	encoders := map[string]struct {
		write func(io.Writer, []*task.Task) error
		fmt   Format
	}{
		"csv":   {WriteCSV, FormatCSV},
		"jsonl": {WriteJSONL, FormatJSONL},
	}
	for name, codec := range encoders {
		for _, regime := range []Regime{Regime2024, Regime2020} {
			for seed := int64(1); seed <= 3; seed++ {
				tasks := genTrace(seed, regime)
				for _, compress := range []bool{false, true} {
					var buf bytes.Buffer
					var w io.Writer = &buf
					var zw *gzip.Writer
					if compress {
						zw = gzip.NewWriter(&buf)
						w = zw
					}
					if err := codec.write(w, tasks); err != nil {
						t.Fatal(err)
					}
					if zw != nil {
						if err := zw.Close(); err != nil {
							t.Fatal(err)
						}
					}
					src, err := OpenReader(bytes.NewReader(buf.Bytes()), FormatAuto)
					if err != nil {
						t.Fatalf("%s seed %d gzip=%v: open: %v", name, seed, compress, err)
					}
					got, err := Collect(src)
					if err != nil {
						t.Fatalf("%s seed %d gzip=%v: collect: %v", name, seed, compress, err)
					}
					if len(got) != len(tasks) {
						t.Fatalf("%s seed %d: length %d != %d", name, seed, len(got), len(tasks))
					}
					for i := range tasks {
						if !sameTask(tasks[i], got[i]) {
							t.Fatalf("%s seed %d task %d mismatch:\n%+v\n%+v",
								name, seed, i, tasks[i], got[i])
						}
					}
				}
			}
		}
	}
}

// TestCSVErrorsCarryLineAndColumn: the satellite fix — a bad field is
// reported with its input line number and column name.
func TestCSVErrorsCarryLineAndColumn(t *testing.T) {
	header := strings.Join(csvHeader, ",")
	cases := []struct {
		name, row, wantLine, wantCol string
	}{
		{"bad id", "x,o,m,hp,1,1,false,60,0,0", "line 3", "column id"},
		{"bad type", "1,o,m,weird,1,1,false,60,0,0", "line 3", "column type"},
		{"NaN gpus", "1,o,m,hp,1,NaN,false,60,0,0", "line 3", "column gpus_per_pod"},
		{"bad gang", "1,o,m,hp,1,1,maybe,60,0,0", "line 3", "column gang"},
		{"bad duration", "1,o,m,hp,1,1,false,x,0,0", "line 3", "column duration_s"},
	}
	for _, tc := range cases {
		in := header + "\n1,o,m,hp,1,1,false,60,0,0\n" + tc.row + "\n"
		src, err := NewCSVSource(strings.NewReader(in))
		if err != nil {
			t.Fatalf("%s: header: %v", tc.name, err)
		}
		if _, err := src.Next(); err != nil {
			t.Fatalf("%s: first valid row failed: %v", tc.name, err)
		}
		_, err = src.Next()
		if err == nil {
			t.Fatalf("%s: bad row accepted", tc.name)
		}
		for _, want := range []string{tc.wantLine, tc.wantCol} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: error %q missing %q", tc.name, err, want)
			}
		}
		// The error is sticky: the stream does not resume past it.
		if _, err2 := src.Next(); err2 == nil {
			t.Fatalf("%s: error was not sticky", tc.name)
		}
	}
}

// TestMalformedInputs: structural failures — empty input, foreign
// header, truncated gzip — fail loudly, at open or during the stream.
func TestMalformedInputs(t *testing.T) {
	if _, err := NewCSVSource(strings.NewReader("")); err == nil {
		t.Fatal("empty input should fail at open")
	}
	if _, err := NewCSVSource(strings.NewReader("bogus,header\n")); err == nil {
		t.Fatal("foreign header should fail at open")
	}
	if _, err := OpenReader(strings.NewReader("who,knows\n1,2\n"), FormatAuto); err == nil {
		t.Fatal("unrecognized header should fail format sniffing")
	}

	// Truncated gzip: chop the stream mid-body so decompression dies
	// mid-flight; the error must surface from Next, not be swallowed
	// as a short but "successful" trace.
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if err := WriteCSV(zw, genTrace(1, Regime2024)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	src, err := OpenReader(bytes.NewReader(trunc), FormatAuto)
	if err != nil {
		t.Fatalf("open truncated gzip: %v (truncation should surface mid-stream)", err)
	}
	_, err = Collect(src)
	if err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("truncated gzip must fail the stream, got %v", err)
	}

	// JSONL with a NaN-smuggling line and a broken object.
	for _, bad := range []string{
		`{"id":1,"type":"hp","pods":1,"gpus_per_pod":1,"duration_s":60,"submit_s":0` + "\n", // unterminated
		`{"id":1,"type":"hp","pods":0,"gpus_per_pod":1,"duration_s":60,"submit_s":0}` + "\n",
		`{"id":1,"type":"hp","pods":1,"gpus_per_pod":0,"duration_s":60,"submit_s":0}` + "\n",
		`{"id":1,"type":"??","pods":1,"gpus_per_pod":1,"duration_s":60,"submit_s":0}` + "\n",
	} {
		if _, err := Collect(NewJSONLSource(strings.NewReader(bad))); err == nil {
			t.Fatalf("jsonl %q should fail", bad)
		}
	}
}

// TestValidateCatchesUnsorted: Validate enforces the replay loop's
// ordering contract.
func TestValidateCatchesUnsorted(t *testing.T) {
	a := task.New(1, task.HP, 1, 1, simclock.Hour)
	a.Submit = 100
	b := task.New(2, task.HP, 1, 1, simclock.Hour)
	b.Submit = 50
	n, err := Validate(SliceSource([]*task.Task{a, b}))
	if !errors.Is(err, ErrUnsorted) {
		t.Fatalf("want ErrUnsorted, got %v", err)
	}
	if n != 1 {
		t.Fatalf("one valid task before the violation, got %d", n)
	}
	if n, err := Validate(SliceSource(genTrace(2, Regime2024))); err != nil || n == 0 {
		t.Fatalf("generated trace should validate: n=%d err=%v", n, err)
	}
}

// TestTransforms: rebase anchors the first submission and rate-scale
// divides arrival times.
func TestTransforms(t *testing.T) {
	mk := func() Source { return SliceSource(genTrace(3, Regime2024)) }
	orig := genTrace(3, Regime2024)

	rebased, err := Collect(Rebase(mk(), 0))
	if err != nil {
		t.Fatal(err)
	}
	if rebased[0].Submit != 0 {
		t.Fatalf("rebase: first submit %d, want 0", rebased[0].Submit)
	}
	off := orig[0].Submit
	for i := range orig {
		if rebased[i].Submit != orig[i].Submit-off {
			t.Fatalf("rebase: task %d shifted wrong", i)
		}
	}

	scaled, err := Collect(RateScale(mk(), 2))
	if err != nil {
		t.Fatal(err)
	}
	for i := range orig {
		if scaled[i].Submit != orig[i].Submit/2 {
			t.Fatalf("rate-scale: task %d submit %d, want %d", i, scaled[i].Submit, orig[i].Submit/2)
		}
		if scaled[i].Duration != orig[i].Duration {
			t.Fatal("rate-scale must not touch durations")
		}
	}
	if _, err := Collect(RateScale(mk(), 0)); err == nil {
		t.Fatal("rate-scale factor 0 must error")
	}
}

// TestHeadWindow: the relative window anchors at the first task's
// submission, so a dump starting at an arbitrary epoch keeps its
// head instead of being emptied.
func TestHeadWindow(t *testing.T) {
	late := genTrace(8, Regime2024)
	for _, tk := range late {
		tk.Submit += simclock.Time(100 * simclock.Day)
	}
	first := late[0].Submit
	var want int
	for _, tk := range late {
		if tk.Submit < first.Add(6*simclock.Hour) {
			want++
		}
	}
	got, err := Collect(HeadWindow(SliceSource(late), 6*simclock.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != want || want == 0 {
		t.Fatalf("head window kept %d tasks, want %d", len(got), want)
	}
}

// TestValidateCatchesDuplicateIDs: replay bookkeeping keys on IDs, so
// the offline validator rejects duplicates (and the decoders reject
// non-positive ids outright).
func TestValidateCatchesDuplicateIDs(t *testing.T) {
	a := task.New(7, task.HP, 1, 1, simclock.Hour)
	b := task.New(7, task.HP, 1, 1, simclock.Hour)
	b.Submit = 50
	n, err := Validate(SliceSource([]*task.Task{a, b}))
	if err == nil || !strings.Contains(err.Error(), "duplicate id") {
		t.Fatalf("want duplicate-id error, got %v", err)
	}
	if n != 1 {
		t.Fatalf("one valid task before the duplicate, got %d", n)
	}
	zero := `{"type":"hp","pods":1,"gpus_per_pod":1,"duration_s":60,"submit_s":0}` + "\n"
	if _, err := Collect(NewJSONLSource(strings.NewReader(zero))); err == nil {
		t.Fatal("missing id (0) must be rejected at decode")
	}
}

// TestSortBySubmit: the materializing escape hatch orders an
// unsorted stream.
func TestSortBySubmit(t *testing.T) {
	a := task.New(1, task.HP, 1, 1, simclock.Hour)
	a.Submit = 300
	b := task.New(2, task.HP, 1, 1, simclock.Hour)
	b.Submit = 100
	got, err := Collect(SortBySubmit(SliceSource([]*task.Task{a, b})))
	if err != nil {
		t.Fatal(err)
	}
	if got[0].ID != 2 || got[1].ID != 1 {
		t.Fatalf("not sorted: %v %v", got[0].ID, got[1].ID)
	}
}

const alibabaSample = `job_name,task_name,inst_num,status,start_time,end_time,plan_cpu,plan_mem,plan_gpu,gpu_type
j1,tensorflow,1,Terminated,100,1300,600,29,50,V100
j2,worker,4,Terminated,200,7400,600,29,100,V100
j3,worker,1,Running,300,,600,29,100,V100
j4,worker,1,Terminated,400,900,600,29,,V100
j5,worker,2,Terminated,50,2450,600,29,200,
`

// TestAlibabaAdapter: the pai_task_table mapping — percent GPUs to
// fractional cards, instance counts to pods, Terminated-only, with
// unusable rows skipped and counted, every import checkpoint-free
// spot work and no gang.
func TestAlibabaAdapter(t *testing.T) {
	src, err := NewAlibabaSource(strings.NewReader(alibabaSample))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("want 3 usable rows, got %d", len(got))
	}
	if sk := src.(Skipper).Skipped(); sk != 2 {
		t.Fatalf("want 2 skipped rows (Running, empty plan_gpu), got %d", sk)
	}
	half := got[0]
	if half.GPUsPerPod != 0.5 || half.Pods != 1 || half.Duration != 1200 ||
		half.Submit != 100 || half.Org != "j1" || half.GPUModel != "V100" {
		t.Fatalf("row 1 mapped wrong: %+v", half)
	}
	if four := got[1]; four.Pods != 4 || four.GPUsPerPod != 1 {
		t.Fatalf("row 2 mapped wrong: %+v", four)
	}
	two := got[2]
	if two.GPUsPerPod != 2 || two.Pods != 2 || two.ID != 3 {
		t.Fatalf("row 5 mapped wrong: %+v", two)
	}
	for _, tk := range got {
		if err := CheckTask(tk); err != nil {
			t.Fatalf("adapter emitted invalid task: %v", err)
		}
		if tk.Type != task.Spot || tk.CheckpointEvery != 0 || tk.Gang {
			t.Fatalf("imports are checkpoint-free spot tasks outside any gang: %+v", tk)
		}
	}
}

const phillySample = `jobid,vc,submitted_time,num_gpus,duration,status
app_1,vc1,0,1,3600,Pass
app_2,vc2,60,16,7200,Pass
app_3,vc1,120,4,1800,Killed
app_4,vc2,180,0,600,Pass
app_5,vc3,240,8,900,Pass
app_6,vc1,300,12,600,Pass
`

// TestPhillyAdapter: the Philly mapping — ≤8 GPUs one pod, larger
// jobs split across the fewest 8-card machines with the GPU total
// conserved, non-Pass and zero-GPU rows skipped.
func TestPhillyAdapter(t *testing.T) {
	src, err := NewPhillySource(strings.NewReader(phillySample))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("want 4 usable rows, got %d", len(got))
	}
	if sk := src.(Skipper).Skipped(); sk != 2 {
		t.Fatalf("want 2 skipped rows, got %d", sk)
	}
	if got[0].Pods != 1 || got[0].GPUsPerPod != 1 || got[0].Org != "vc1" || got[0].Type != task.Spot {
		t.Fatalf("row 1 mapped wrong: %+v", got[0])
	}
	multi := got[1]
	if multi.Pods != 2 || multi.GPUsPerPod != 8 || multi.Duration != 7200 || !multi.Gang {
		t.Fatalf("16-GPU job should split into a 2×8 gang: %+v", multi)
	}
	if got[2].Pods != 1 || got[2].GPUsPerPod != 8 || got[2].Gang {
		t.Fatalf("8-GPU job stays one non-gang pod: %+v", got[2])
	}
	// Non-multiple of 8: the traced request is conserved (12 = 2×6),
	// never rounded up to whole machines.
	odd := got[3]
	if odd.Pods != 2 || odd.GPUsPerPod != 6 || odd.TotalGPUs() != 12 || !odd.Gang {
		t.Fatalf("12-GPU job should split into a 2×6 gang: %+v", odd)
	}
}

// TestAdaptersRejectNonFinite: NaN/Inf in any numeric column skips
// the row (never a malformed task downstream), keeping the CheckTask
// contract for adapter sources.
func TestAdaptersRejectNonFinite(t *testing.T) {
	philly := `jobid,submitted_time,num_gpus,duration
a,NaN,4,3600
b,0,+Inf,3600
c,0,4,NaN
d,60,4,3600
`
	src, err := NewPhillySource(strings.NewReader(philly))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Submit != 60 {
		t.Fatalf("want only the finite row, got %d tasks", len(got))
	}
	if sk := src.(Skipper).Skipped(); sk != 3 {
		t.Fatalf("want 3 skipped non-finite rows, got %d", sk)
	}
	for _, tk := range got {
		if err := CheckTask(tk); err != nil {
			t.Fatalf("adapter emitted invalid task: %v", err)
		}
	}

	alibaba := `job_name,inst_num,status,start_time,end_time,plan_gpu
a,1,Terminated,0,+Inf,100
b,1,Terminated,NaN,100,100
c,1,Terminated,0,1200,100
`
	asrc, err := NewAlibabaSource(strings.NewReader(alibaba))
	if err != nil {
		t.Fatal(err)
	}
	agot, err := Collect(asrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(agot) != 1 || agot[0].Duration != 1200 {
		t.Fatalf("want only the finite row, got %d tasks", len(agot))
	}
}

// TestAlibabaWithoutGPUType: the raw task table has no gpu_type
// column; imported tasks must carry an empty GPU model (placeable on
// any node), not a stray column's value.
func TestAlibabaWithoutGPUType(t *testing.T) {
	in := `job_name,inst_num,status,start_time,end_time,plan_gpu
j9,1,Terminated,0,600,100
`
	src, err := NewAlibabaSource(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(src)
	if err != nil || len(got) != 1 {
		t.Fatalf("collect: %d tasks, %v", len(got), err)
	}
	if got[0].GPUModel != "" {
		t.Fatalf("missing gpu_type column must map to empty model, got %q", got[0].GPUModel)
	}
	if got[0].Org != "j9" {
		t.Fatalf("job_name should still map to org, got %q", got[0].Org)
	}
}

// TestAdapterMissingColumn: a structurally wrong external file fails
// at open, naming the missing column.
func TestAdapterMissingColumn(t *testing.T) {
	_, err := NewAlibabaSource(strings.NewReader("job_name,inst_num\nj,1\n"))
	if err == nil || !strings.Contains(err.Error(), "missing column") {
		t.Fatalf("want missing-column error, got %v", err)
	}
	_, err = NewPhillySource(strings.NewReader("jobid\nx\n"))
	if err == nil || !strings.Contains(err.Error(), "missing column") {
		t.Fatalf("want missing-column error, got %v", err)
	}
}

// TestOpenSniffsExternalFormats: FormatAuto recognizes every dialect
// by its header.
func TestOpenSniffsExternalFormats(t *testing.T) {
	for name, in := range map[string]string{
		"alibaba": alibabaSample,
		"philly":  phillySample,
	} {
		src, err := OpenReader(strings.NewReader(in), FormatAuto)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := Collect(src)
		if err != nil || len(got) == 0 {
			t.Fatalf("%s: collect: %d tasks, %v", name, len(got), err)
		}
	}
}

// TestSummarizeSourceMatchesSummarize: the one-pass streaming summary
// agrees with the slice-based one.
func TestSummarizeSourceMatchesSummarize(t *testing.T) {
	tasks := genTrace(4, Regime2024)
	want := Summarize(tasks)
	got, err := SummarizeSource(SliceSource(tasks))
	if err != nil {
		t.Fatal(err)
	}
	if got.HPCount != want.HPCount || got.SpotCount != want.SpotCount ||
		got.HPFrac != want.HPFrac || got.GangFracHP != want.GangFracHP ||
		got.GangFracSpot != want.GangFracSpot ||
		got.TotalGPUSeconds != want.TotalGPUSeconds {
		t.Fatalf("streamed stats differ:\n%+v\n%+v", got, want)
	}
	for k, v := range want.SizeHistHP {
		if got.SizeHistHP[k] != v {
			t.Fatalf("hist %s: %v != %v", k, got.SizeHistHP[k], v)
		}
	}
}

// TestIngestConstantAllocs: the acceptance bound — pulling one task
// from a streaming CSV source costs a small constant number of
// allocations, independent of trace length, so ingestion can never
// materialize the file. (Collect would, which is why replay does not
// use it.)
func TestIngestConstantAllocs(t *testing.T) {
	tasks := genTrace(5, Regime2024)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tasks); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	src, err := NewCSVSource(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	allocs := testing.AllocsPerRun(len(tasks)-1, func() {
		if _, err := src.Next(); err != nil {
			t.Fatalf("task %d: %v", n, err)
		}
		n++
	})
	// One task.Task, the record string, and a handful of boxed
	// fields; 20 leaves slack across Go versions while still
	// catching any O(trace) buffering.
	if allocs > 20 {
		t.Fatalf("ingest costs %.1f allocs/task, want ≤ 20 (constant)", allocs)
	}
}

// TestParseRegime: the strict regime parser behind gfstrace -regime.
func TestParseRegime(t *testing.T) {
	if r, err := ParseRegime("2020"); err != nil || r != Regime2020 {
		t.Fatalf("2020: %v %v", r, err)
	}
	if r, err := ParseRegime("2024"); err != nil || r != Regime2024 {
		t.Fatalf("2024: %v %v", r, err)
	}
	if _, err := ParseRegime("1999"); err == nil || !strings.Contains(err.Error(), "2024, 2020") {
		t.Fatalf("bad regime must list valid values, got %v", err)
	}
}

// TestWriteFileRoundTrip: extension-driven encoding and compression
// round-trip through the filesystem helpers.
func TestWriteFileRoundTrip(t *testing.T) {
	tasks := genTrace(6, Regime2020)
	for _, name := range []string{"t.csv", "t.csv.gz", "t.jsonl", "t.jsonl.gz"} {
		path := t.TempDir() + "/" + name
		if err := WriteFile(path, tasks); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		src, err := Open(path)
		if err != nil {
			t.Fatalf("%s: open: %v", name, err)
		}
		got, err := Collect(src)
		if err != nil {
			t.Fatalf("%s: collect: %v", name, err)
		}
		if len(got) != len(tasks) {
			t.Fatalf("%s: %d != %d tasks", name, len(got), len(tasks))
		}
		for i := range tasks {
			if !sameTask(tasks[i], got[i]) {
				t.Fatalf("%s: task %d mismatch", name, i)
			}
		}
	}
}
