package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"github.com/sjtucitlab/gfs/internal/simclock"
	"github.com/sjtucitlab/gfs/internal/task"
)

// fuzzSeedTasks builds a small representative trace for the fuzz seed
// corpora: both classes, gangs, partial cards, org/model strings with
// CSV- and JSON-hostile characters.
func fuzzSeedTasks() []*task.Task {
	mk := func(id int, typ task.Type, pods int, gpus float64, dur simclock.Duration) *task.Task {
		return task.New(id, typ, pods, gpus, dur)
	}
	a := mk(1, task.HP, 2, 8, 2*simclock.Hour)
	a.Org, a.GPUModel, a.Gang = "OrgA", "A100", true
	a.Submit = 30 * 60
	b := mk(2, task.Spot, 1, 0.5, 45*simclock.Minute)
	b.Org, b.GPUModel = `Org,with"quote`, "H800"
	b.CheckpointEvery = simclock.Hour
	c := mk(3, task.Spot, 4, 1, simclock.Day)
	c.Org = "line\nbreak"
	c.Submit = 86399
	return []*task.Task{a, b, c}
}

// roundTrip asserts the parse→encode→parse fixpoint: tasks decoded
// from arbitrary input must survive one encode/decode cycle exactly.
// Any divergence means the codec loses information.
func roundTrip(t *testing.T, tasks []*task.Task,
	write func([]*task.Task) ([]byte, error), read func([]byte) ([]*task.Task, error)) {
	t.Helper()
	enc, err := write(tasks)
	if err != nil {
		t.Fatalf("re-encode of parsed tasks failed: %v", err)
	}
	again, err := read(enc)
	if err != nil {
		t.Fatalf("re-parse of encoded tasks failed: %v\nencoded:\n%s", err, enc)
	}
	if !reflect.DeepEqual(tasks, again) {
		t.Fatalf("round-trip not a fixpoint:\nfirst:  %+v\nsecond: %+v", tasks, again)
	}
}

// checkParsed asserts every decoded task passed CheckTask — the
// decoder contract the simulator's epoch bookkeeping relies on.
func checkParsed(t *testing.T, tasks []*task.Task) {
	t.Helper()
	for _, tk := range tasks {
		if tk == nil {
			t.Fatal("decoder returned a nil task without error")
		}
		if err := CheckTask(tk); err != nil {
			t.Fatalf("decoder accepted invalid task %d: %v", tk.ID, err)
		}
	}
}

func FuzzParseTaskCSV(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteCSV(&seed, fuzzSeedTasks()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte(strings.Join(csvHeader, ",") + "\n"))
	f.Add([]byte("id,org,gpu_model,type,pods,gpus_per_pod,gang,duration_s,checkpoint_s,submit_s\n1,o,m,hp,1,1,false,60,0,0\n"))
	f.Add([]byte("id,org,gpu_model,type,pods,gpus_per_pod,gang,duration_s,checkpoint_s,submit_s\n0,o,m,hp,1,NaN,x,-1,-1,-1\n"))
	f.Add([]byte(`not,a,trace`))
	f.Fuzz(func(t *testing.T, data []byte) {
		tasks, err := readCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkParsed(t, tasks)
		roundTrip(t, tasks,
			func(ts []*task.Task) ([]byte, error) {
				var buf bytes.Buffer
				err := WriteCSV(&buf, ts)
				return buf.Bytes(), err
			},
			func(b []byte) ([]*task.Task, error) { return readCSV(bytes.NewReader(b)) },
		)
	})
}

func FuzzParseTaskJSONL(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteJSONL(&seed, fuzzSeedTasks()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte(`{"id":1,"type":"hp","pods":1,"gpus_per_pod":1,"duration_s":60,"submit_s":0}` + "\n"))
	f.Add([]byte("\n\n" + `{"id":2,"type":"spot","pods":2,"gpus_per_pod":0.5,"duration_s":1,"submit_s":5}` + "\n"))
	f.Add([]byte(`{"id":0,"type":"worm","pods":-1,"gpus_per_pod":1e309,"duration_s":0}`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, data []byte) {
		tasks, err := Collect(NewJSONLSource(bytes.NewReader(data)))
		if err != nil {
			return
		}
		checkParsed(t, tasks)
		roundTrip(t, tasks,
			func(ts []*task.Task) ([]byte, error) {
				var buf bytes.Buffer
				err := WriteJSONL(&buf, ts)
				return buf.Bytes(), err
			},
			func(b []byte) ([]*task.Task, error) { return Collect(NewJSONLSource(bytes.NewReader(b))) },
		)
	})
}
