package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"github.com/sjtucitlab/gfs/internal/runspec"
	"github.com/sjtucitlab/gfs/internal/service"
)

// serviceStatus is the slice of the gfsd session status this
// experiment reads back.
type serviceStatus struct {
	ID                 string  `json:"id"`
	State              string  `json:"state"`
	Error              string  `json:"error"`
	TimeToFirstEventMS float64 `json:"time_to_first_event_ms"`
	Progress           struct {
		Events        uint64 `json:"events"`
		SimTimeS      int64  `json:"sim_time_s"`
		TasksFinished uint64 `json:"tasks_finished"`
		TasksEvicted  uint64 `json:"tasks_evicted"`
	} `json:"progress"`
	Spec runspec.Spec `json:"spec"`
}

// runService exercises the gfsd daemon path end to end, in process:
// concurrent sessions on the shared worker pool, live status polling,
// and a determinism cross-check — identical specs must serve
// byte-identical JSONL reports regardless of pool interleaving.
func runService(env expEnv) error {
	fmt.Println("== Service: gfsd sessions on the shared worker pool ==")

	svc := service.New(service.Config{Workers: 2})
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()

	specs := []runspec.Spec{
		{Scheduler: "gfs", Nodes: env.scale.Nodes / 2, Days: 1, SpotScale: 1, Seed: env.scale.Seed},
		{Scheduler: "yarn", Nodes: env.scale.Nodes / 2, Days: 1, SpotScale: 1, Seed: env.scale.Seed},
		{Scheduler: "chronus", Nodes: env.scale.Nodes / 2, Days: 1, SpotScale: 1, Seed: env.scale.Seed},
		// Same spec as the yarn session above: its report must match
		// byte for byte.
		{Scheduler: "yarn", Nodes: env.scale.Nodes / 2, Days: 1, SpotScale: 1, Seed: env.scale.Seed},
	}

	ids := make([]string, len(specs))
	for i, sp := range specs {
		id, err := serviceSubmit(ts.URL, sp)
		if err != nil {
			return fmt.Errorf("submit %s: %w", sp.Scheduler, err)
		}
		ids[i] = id
	}

	fmt.Printf("%-10s %-9s %-10s %7s %9s %8s %8s %9s\n",
		"session", "sched", "state", "events", "sim(h)", "done", "evicted", "ttfe(ms)")
	for _, id := range ids {
		st, err := serviceAwait(ts.URL, id, 2*time.Minute)
		if err != nil {
			return err
		}
		if st.State != "done" {
			return fmt.Errorf("session %s ended %s: %s", id, st.State, st.Error)
		}
		fmt.Printf("%-10s %-9s %-10s %7d %9.1f %8d %8d %9.1f\n",
			st.ID, st.Spec.Scheduler, st.State, st.Progress.Events,
			float64(st.Progress.SimTimeS)/3600, st.Progress.TasksFinished,
			st.Progress.TasksEvicted, st.TimeToFirstEventMS)
	}

	rep1, err := serviceReport(ts.URL, ids[1])
	if err != nil {
		return err
	}
	rep2, err := serviceReport(ts.URL, ids[3])
	if err != nil {
		return err
	}
	if !bytes.Equal(rep1, rep2) {
		return fmt.Errorf("identical specs served different JSONL reports (%d vs %d bytes)", len(rep1), len(rep2))
	}
	fmt.Printf("determinism: identical specs served byte-identical JSONL reports (%d bytes)\n", len(rep1))
	return nil
}

func serviceSubmit(base string, sp runspec.Spec) (string, error) {
	body, err := json.Marshal(sp)
	if err != nil {
		return "", err
	}
	resp, err := http.Post(base+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body)
		return "", fmt.Errorf("POST /v1/sessions: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	var st serviceStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return "", err
	}
	return st.ID, nil
}

func serviceAwait(base, id string, timeout time.Duration) (serviceStatus, error) {
	deadline := time.Now().Add(timeout)
	for {
		var st serviceStatus
		resp, err := http.Get(base + "/v1/sessions/" + id)
		if err != nil {
			return st, err
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return st, err
		}
		switch st.State {
		case "done", "failed", "cancelled":
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("session %s still %s after %v", id, st.State, timeout)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func serviceReport(base, id string) ([]byte, error) {
	resp, err := http.Get(base + "/v1/sessions/" + id + "/report?format=jsonl")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("report %s: %s: %s", id, resp.Status, bytes.TrimSpace(msg))
	}
	return io.ReadAll(resp.Body)
}
