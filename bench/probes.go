package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"time"

	"github.com/sjtucitlab/gfs/internal/cluster"
	"github.com/sjtucitlab/gfs/internal/experiments"
	"github.com/sjtucitlab/gfs/internal/forecast"
	"github.com/sjtucitlab/gfs/internal/gde"
	"github.com/sjtucitlab/gfs/internal/pts"
	"github.com/sjtucitlab/gfs/internal/sched"
	"github.com/sjtucitlab/gfs/internal/simclock"
	"github.com/sjtucitlab/gfs/internal/sqa"
	"github.com/sjtucitlab/gfs/internal/task"
	"github.com/sjtucitlab/gfs/internal/trace"
)

// The isolated probes time one layer's public functions directly on
// fixed inputs (they ignore the seed), so a layer's cost can be read
// without a whole run around it. Each is a few tens of milliseconds.

// perCall times calls of fn in three batches of n and returns the
// median batch's nanoseconds per call.
func perCall(n int, fn func()) float64 {
	var batches []float64
	for b := 0; b < 3; b++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		batches = append(batches, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(batches)
}

// scaled shrinks a probe's size for the quick profile.
func scaled(c *config, n int) int {
	if c.quick {
		return max(n/50, 8)
	}
	return n
}

// probes runs every isolated probe and stores its metric.
func probes(c *config, v layerValues) error {
	probeQueue(c, v)
	probeCluster(c, v)
	if err := probePTS(c, v); err != nil {
		return err
	}
	if err := probeQuota(c, v); err != nil {
		return err
	}
	return probeCodecs(c, v)
}

// probeQueue is the classic hold model on the calendar queue: at a
// steady resident size, pop the earliest event and push one a random
// interval later.
func probeQueue(c *config, v layerValues) {
	hold := func(size int, push func(simclock.Time), pop func() simclock.Time) float64 {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < size; i++ {
			push(simclock.Time(rng.Int63n(int64(simclock.Day))))
		}
		return perCall(scaled(c, 100000), func() {
			push(pop().Add(simclock.Duration(1 + rng.Int63n(int64(simclock.Hour)))))
		})
	}
	for _, p := range []struct {
		name string
		size int
	}{{"simclock.hold_ns_1k", 1000}, {"simclock.hold_ns_100k", scaled(c, 100000)}} {
		var q simclock.Queue
		v[p.name] = hold(p.size,
			func(at simclock.Time) { q.Push(at, nil) },
			func() simclock.Time { ev, _ := q.Pop(); return ev.At })
	}
	sq := simclock.NewShardedQueue(2)
	shard := 0
	v["simclock.sharded_hold_ns_100k"] = hold(scaled(c, 100000),
		func(at simclock.Time) { shard ^= 1; sq.Push(shard, at, nil) },
		func() simclock.Time { ev, _ := sq.Pop(); return ev.At })
}

// halfFull builds an n-node cluster with every other card of every
// node taken by a one-card HP task, returning the state and the next
// free task ID.
func halfFull(n int) (*sched.State, int) {
	st := sched.NewState(cluster.NewHomogeneous("A100", n, 8))
	id := 1
	for _, node := range st.Cluster.Nodes() {
		for k := 0; k < 4; k++ {
			tk := task.New(id, task.HP, 1, 1, simclock.Hour)
			tk.GPUModel = "A100"
			txn := st.Begin()
			if err := txn.Place(node, tk); err != nil {
				panic(err)
			}
			txn.Commit()
			tk.Start(0)
			id++
		}
	}
	return st, id
}

func probeCluster(c *config, v layerValues) {
	n := scaled(c, 10000)
	st, id := halfFull(n)
	nodes := st.Cluster.Nodes()
	whole := task.New(id, task.HP, 1, 2, simclock.Hour)
	frac := task.New(id+1, task.Spot, 1, 0.5, simclock.Hour)
	i := 0
	v["cluster.place_release_ns"] = perCall(scaled(c, 100000), func() {
		node := nodes[i%len(nodes)]
		tk := whole
		if i&1 == 1 {
			tk = frac
		}
		i++
		if err := node.PlacePod(tk); err != nil {
			panic(err)
		}
		node.ReleaseTask(tk)
	}) / 2

	fits := 0
	scan := perCall(scaled(c, 50), func() {
		for _, node := range nodes {
			if node.CanFitPod(whole) {
				fits++
			}
		}
	})
	v["cluster.canfit_scan_ns_per_node"] = scan / float64(len(nodes))

	used := 0.0
	v["cluster.agg_read_after_write_ns_10k"] = perCall(scaled(c, 2000), func() {
		node := nodes[i%len(nodes)]
		i++
		if err := node.PlacePod(whole); err != nil {
			panic(err)
		}
		used += st.Cluster.UsedGPUs("")
		node.ReleaseTask(whole)
	})
	if fits == 0 || used == 0 {
		panic("bench: cluster probe did no work")
	}
}

// probePTS times the Eq. 13–16 placement scan on a quiet half-full
// cluster — hot (version-gated score caches valid) and cold (every
// node's version bumped between calls) — and Eq. 12 preemption
// planning for an HP gang on a cluster full of spot tasks.
func probePTS(c *config, v layerValues) error {
	for _, size := range []int{287, 1250, 10000} {
		n := scaled(c, size)
		st, id := halfFull(n)
		s := pts.New(pts.DefaultConfig())
		ctx := &sched.Context{Now: simclock.Time(simclock.Hour), State: st}
		tk := task.New(id, task.HP, 1, 2, simclock.Hour)
		tk.GPUModel = "A100"
		var failed error
		place := func() {
			if _, err := s.Schedule(ctx, tk); err != nil {
				failed = err
				return
			}
			st.ReleaseAll(tk)
		}
		place() // fill the score cache
		v[fmt.Sprintf("pts.place_scan_hot_ns_%d", size)] = perCall(scaled(c, 200000/size+20), place)
		if size == 10000 {
			bump := task.New(id+1, task.Spot, 1, 0.5, simclock.Hour)
			nodes := st.Cluster.Nodes()
			var colds []float64
			for i := 0; i < scaled(c, 60) && failed == nil; i++ {
				for _, node := range nodes {
					if err := node.PlacePod(bump); err != nil {
						failed = err
						break
					}
					node.ReleaseTask(bump)
				}
				t0 := time.Now()
				place()
				colds = append(colds, float64(time.Since(t0).Nanoseconds()))
			}
			v["pts.place_scan_cold_ns_10000"] = median(colds)
		}
		if failed != nil {
			return fmt.Errorf("pts placement probe at %d nodes: %w", size, failed)
		}
	}

	// Preemption: every node holds eight one-card spot tasks; an HP
	// gang of four whole nodes must evict 32 of them.
	n := scaled(c, 1250)
	st := sched.NewState(cluster.NewHomogeneous("A100", n, 8))
	id := 1
	for _, node := range st.Cluster.Nodes() {
		for k := 0; k < 8; k++ {
			tk := task.New(id, task.Spot, 1, 1, 4*simclock.Hour)
			tk.GPUModel = "A100"
			tk.CheckpointEvery = simclock.Hour
			txn := st.Begin()
			if err := txn.Place(node, tk); err != nil {
				return err
			}
			txn.Commit()
			tk.Start(simclock.Time(id % 3600))
			id++
		}
	}
	s := pts.New(pts.DefaultConfig())
	ctx := &sched.Context{Now: simclock.Time(2 * simclock.Hour), State: st, G: 1000, F: 50}
	gang := task.New(id, task.HP, 4, 8, simclock.Hour)
	gang.GPUModel, gang.Gang = "A100", true
	var failed error
	plan := func() {
		dec, err := s.Schedule(ctx, gang)
		if err != nil {
			failed = err
			return
		}
		if len(dec.Victims) == 0 {
			failed = fmt.Errorf("no victims planned")
			return
		}
		// Undo: release the gang, put the victims back.
		st.ReleaseAll(gang)
		txn := st.Begin()
		for i, victim := range dec.Victims {
			for _, loc := range dec.VictimLocs[i] {
				for p := 0; p < loc.Pods; p++ {
					if err := txn.Place(loc.Node, victim); err != nil {
						failed = err
					}
				}
			}
		}
		txn.Commit()
	}
	v["pts.preempt_plan_ns_1250"] = perCall(scaled(c, 20), plan)
	if failed != nil {
		return fmt.Errorf("pts preemption probe: %w", failed)
	}
	return nil
}

// probeQuota times the SQA arithmetic of one quota tick (η update,
// Eq. 9 inventory over four organizations, Eq. 10 quota), one GDE
// forecast, and estimator training at paper scale.
func probeQuota(c *config, v layerValues) error {
	alloc := sqa.New(sqa.DefaultConfig())
	forecasts := make([]sqa.OrgForecast, 4)
	for i := range forecasts {
		forecasts[i] = sqa.OrgForecast{Mu: []float64{300, 310, 320, 330}, Sigma: []float64{20, 25, 30, 35}}
	}
	quota := 0.0
	v["sqa.tick_ns"] = perCall(scaled(c, 100000), func() {
		alloc.UpdateEta(0.03, 10*simclock.Minute)
		quota += alloc.Quota(alloc.Inventory(2296, forecasts), 900, 400)
	})
	if quota == 0 {
		panic("bench: sqa probe did no work")
	}

	s := paperScale(c.quick)
	ocfg := forecast.DefaultOrgLinearConfig()
	ocfg.Epochs = s.OrgLinearEpochs
	est := gde.New(gde.Config{History: s.GDEHistory, Horizon: s.GDEHorizon, Model: forecast.NewOrgLinear(ocfg)})
	panel := demandPanel(s)
	t0 := time.Now()
	if err := est.Train(panel, 0); err != nil {
		return err
	}
	v["gde.train_s"] = time.Since(t0).Seconds()
	hist := historyOf(s, panel)
	i := 0
	v["gde.forecast_ns_per_org"] = perCall(scaled(c, 2000), func() {
		org := orgNames[i%len(orgNames)]
		i++
		est.Forecast(org, hist[org], i)
	})
	return nil
}

// probeCodecs times the trace codecs per task on the one-day small
// trace: gzipped-CSV and JSONL decode through the Source pipeline,
// and CSV encode (writes beside reads).
func probeCodecs(c *config, v layerValues) error {
	tasks := experiments.SmallScale().Trace(2)
	gz, err := gzipCSV(tasks)
	if err != nil {
		return err
	}
	var jsonl bytes.Buffer
	if err := trace.WriteJSONL(&jsonl, tasks); err != nil {
		return err
	}
	var failed error
	drain := func(src trace.Source, err error) {
		if err != nil {
			failed = err
			return
		}
		n := 0
		for {
			if _, err := src.Next(); err != nil {
				if err != io.EOF {
					failed = err
				}
				break
			}
			n++
		}
		src.Close()
		if n != len(tasks) {
			failed = fmt.Errorf("decoded %d of %d tasks", n, len(tasks))
		}
	}
	per := float64(len(tasks))
	reps := scaled(c, 30)
	v["trace.csv_gz_decode_ns_per_task"] = perCall(reps, func() {
		drain(trace.OpenReader(bytes.NewReader(gz), trace.FormatAuto))
	}) / per
	v["trace.jsonl_decode_ns_per_task"] = perCall(reps, func() {
		drain(trace.OpenReader(bytes.NewReader(jsonl.Bytes()), trace.FormatJSONL))
	}) / per
	var out bytes.Buffer
	v["trace.csv_encode_ns_per_task"] = perCall(reps, func() {
		out.Reset()
		if err := trace.WriteCSV(&out, tasks); err != nil {
			failed = err
		}
	}) / per
	return failed
}
