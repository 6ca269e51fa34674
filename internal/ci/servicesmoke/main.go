// Command servicesmoke is CI's end-to-end smoke test for the gfsd
// daemon: it builds the real gfsd and gfsim binaries, starts the
// daemon on a loopback port, uploads a generated trace, polls the
// session to completion, and fails unless the served JSONL report is
// byte-identical to what `gfsim -trace ... -scheduler yarn -report
// jsonl` prints for the same spec. Both binaries decode the same
// runspec.Spec and run it through the same builder and runner, so the
// construction cannot drift; what this guards is everything around
// that shared path in two separately linked binaries — flag and query
// lowering, trace upload and decoding, report serving — staying a pure
// transport around it. It also checks
// /metrics for the daemon counters and the per-session report
// snapshot, then exercises the SIGTERM drain path.
//
// Usage (from the repository root):
//
//	go run ./internal/ci/servicesmoke
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	gfs "github.com/sjtucitlab/gfs"
	"github.com/sjtucitlab/gfs/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "servicesmoke: FAIL: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("servicesmoke: OK")
}

func run() error {
	tmp, err := os.MkdirTemp("", "servicesmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	for _, b := range []struct{ name, pkg string }{
		{"gfsd", "./cmd/gfsd"},
		{"gfsim", "./cmd/gfsim"},
	} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(tmp, b.name), b.pkg)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("build %s: %w", b.pkg, err)
		}
	}

	// The shared workload: a generated small-scale trace, written
	// sorted by submit time so the file replays identically through
	// both the CLI and the upload path.
	tasks := experiments.SmallScale().Trace(1)
	sort.SliceStable(tasks, func(i, j int) bool { return tasks[i].Submit < tasks[j].Submit })
	tracePath := filepath.Join(tmp, "trace.jsonl")
	traceFile, err := os.Create(tracePath)
	if err != nil {
		return err
	}
	if err := gfs.WriteTraceJSONL(traceFile, tasks); err != nil {
		return err
	}
	if err := traceFile.Close(); err != nil {
		return err
	}

	// Grab a free loopback port for the daemon. (Closing the probe
	// listener races other processes for the port, which is fine for
	// a CI smoke.)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	addr := ln.Addr().String()
	ln.Close()

	daemon := exec.Command(filepath.Join(tmp, "gfsd"), "-addr", addr, "-workers", "2")
	daemon.Stderr = os.Stderr
	if err := daemon.Start(); err != nil {
		return fmt.Errorf("start gfsd: %w", err)
	}
	defer daemon.Process.Kill()
	base := "http://" + addr
	if err := waitHealthy(base, 10*time.Second); err != nil {
		return err
	}

	// Upload the trace (buffered, format auto-detected) with the run
	// spec in the query string.
	trace, err := os.ReadFile(tracePath)
	if err != nil {
		return err
	}
	resp, err := http.Post(base+"/v1/sessions?scheduler=yarn", "application/x-ndjson", bytes.NewReader(trace))
	if err != nil {
		return err
	}
	accepted, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("POST /v1/sessions: %s: %s", resp.Status, bytes.TrimSpace(accepted))
	}
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(accepted, &st); err != nil {
		return err
	}
	fmt.Printf("servicesmoke: session %s accepted (%s)\n", st.ID, st.State)

	// Poll to completion.
	deadline := time.Now().Add(2 * time.Minute)
	for st.State != "done" {
		switch st.State {
		case "failed", "cancelled":
			return fmt.Errorf("session %s ended %s: %s", st.ID, st.State, st.Error)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("session %s still %s at deadline", st.ID, st.State)
		}
		time.Sleep(100 * time.Millisecond)
		if err := getJSON(base+"/v1/sessions/"+st.ID, &st); err != nil {
			return err
		}
	}

	served, err := getBody(base + "/v1/sessions/" + st.ID + "/report?format=jsonl")
	if err != nil {
		return err
	}

	// The CLI reference: gfsim on the same trace file prints its
	// human summary, then the JSONL report — the JSON lines must
	// match the served report byte for byte.
	cli := exec.Command(filepath.Join(tmp, "gfsim"),
		"-trace", tracePath, "-scheduler", "yarn", "-report", "jsonl")
	cli.Stderr = os.Stderr
	out, err := cli.Output()
	if err != nil {
		return fmt.Errorf("gfsim reference run: %w", err)
	}
	var want bytes.Buffer
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "{") {
			want.WriteString(line)
			want.WriteByte('\n')
		}
	}
	if want.Len() == 0 {
		return fmt.Errorf("gfsim printed no JSONL records:\n%s", out)
	}
	if !bytes.Equal(served, want.Bytes()) {
		return fmt.Errorf("served report diverges from gfsim (-report jsonl):\n--- gfsd (%d bytes)\n%s--- gfsim (%d bytes)\n%s",
			len(served), served, want.Len(), want.String())
	}
	fmt.Printf("servicesmoke: report parity holds (%d bytes, %d records)\n",
		want.Len(), bytes.Count(want.Bytes(), []byte{'\n'}))

	// Daemon metrics must carry both the gfsd counters and the
	// per-session report snapshot.
	metrics, err := getBody(base + "/metrics")
	if err != nil {
		return err
	}
	for _, needle := range []string{
		"gfsd_sessions_started_total 1",
		`gfsd_sessions_finished_total{state="done"} 1`,
		`session="` + st.ID + `"`,
		"gfs_allocation_rate{",
	} {
		if !bytes.Contains(metrics, []byte(needle)) {
			return fmt.Errorf("/metrics missing %q:\n%s", needle, metrics)
		}
	}

	// Graceful drain: SIGTERM must stop the daemon cleanly.
	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- daemon.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("gfsd exited uncleanly after SIGTERM: %w", err)
		}
	case <-time.After(30 * time.Second):
		return fmt.Errorf("gfsd did not exit within 30s of SIGTERM")
	}
	return nil
}

func waitHealthy(base string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gfsd not healthy after %v: %v", timeout, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func getBody(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

func getJSON(url string, v any) error {
	body, err := getBody(url)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}
