package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	gfs "github.com/sjtucitlab/gfs"
	"github.com/sjtucitlab/gfs/internal/runspec"
)

// newTestServer mounts a service on httptest with test-friendly
// sizing.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	svc := New(cfg)
	ts := httptest.NewServer(svc)
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, ts
}

// smallSpec is a spec that simulates quickly but still exercises the
// full event spine.
func smallSpec() runspec.Spec {
	return runspec.Spec{Scheduler: "yarn", Nodes: 4, Days: 1, SpotScale: 1, Seed: 17}
}

// postSpec submits a spec and decodes the status response, asserting
// the HTTP code.
func postSpec(t *testing.T, ts *httptest.Server, spec runspec.Spec, wantCode int) sessionStatus {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantCode {
		t.Fatalf("POST /v1/sessions = %d, want %d (body %s)", resp.StatusCode, wantCode, data)
	}
	var st sessionStatus
	if wantCode < 300 {
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatalf("bad status body %s: %v", data, err)
		}
	}
	return st
}

// getStatus fetches one session's status.
func getStatus(t *testing.T, ts *httptest.Server, id string) sessionStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/sessions/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET session %s = %d", id, resp.StatusCode)
	}
	var st sessionStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitState polls until the session reaches a terminal state (or the
// wanted state), failing the test after timeout.
func waitState(t *testing.T, ts *httptest.Server, id string, want State, timeout time.Duration) sessionStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := getStatus(t, ts, id)
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("session %s ended %s (err %q), want %s", id, st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("session %s stuck in %s after %v", id, st.State, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// fetchReport fetches a session report in the given format.
func fetchReport(t *testing.T, ts *httptest.Server, id, format string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/sessions/" + id + "/report?format=" + format)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET report = %d (body %s)", resp.StatusCode, data)
	}
	return data
}

// referenceJSONL computes the expected report for a spec by running
// the engine directly — the byte-parity oracle.
func referenceJSONL(t *testing.T, spec runspec.Spec, src gfs.TraceSource) []byte {
	t.Helper()
	built, err := runspec.Build(spec, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := built.Run(context.Background())
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	var buf bytes.Buffer
	if err := runspec.WriteReport(&buf, out, "jsonl"); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSessionLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	st := postSpec(t, ts, smallSpec(), http.StatusAccepted)
	if st.State != StateQueued && st.State != StateRunning && st.State != StateDone {
		t.Fatalf("fresh session state = %s", st.State)
	}
	done := waitState(t, ts, st.ID, StateDone, 30*time.Second)
	if done.Progress.Events == 0 || done.Progress.TasksFinished == 0 {
		t.Fatalf("done session has empty progress: %+v", done.Progress)
	}
	if done.StartedAt == nil || done.EndedAt == nil {
		t.Fatal("done session missing started_at/ended_at")
	}
	if done.TimeToFirstEventMS <= 0 {
		t.Fatal("done session missing time_to_first_event_ms")
	}

	got := fetchReport(t, ts, st.ID, "jsonl")
	want := referenceJSONL(t, smallSpec(), nil)
	if !bytes.Equal(got, want) {
		t.Fatalf("service report differs from engine report:\nservice %d bytes\nengine  %d bytes", len(got), len(want))
	}
	// The other formats serve without error.
	for _, format := range []string{"text", "csv", "prom"} {
		if len(fetchReport(t, ts, st.ID, format)) == 0 {
			t.Fatalf("empty %s report", format)
		}
	}
}

func TestFederationSession(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	spec := runspec.Spec{Federation: true, Route: "round-robin", Nodes: 4, Days: 1, Scenario: "rack-failure"}
	st := postSpec(t, ts, spec, http.StatusAccepted)
	waitState(t, ts, st.ID, StateDone, 60*time.Second)
	got := fetchReport(t, ts, st.ID, "jsonl")
	want := referenceJSONL(t, spec, nil)
	if !bytes.Equal(got, want) {
		t.Fatal("federated service report differs from engine report")
	}
	if !bytes.Contains(got, []byte(`"record":"federation"`)) {
		t.Fatal("federated report missing federation header record")
	}
}

func TestInlineTasks(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	mkTasks := func() []json.RawMessage {
		// Deliberately out of submission order: the service sorts
		// inline traces.
		return []json.RawMessage{
			json.RawMessage(`{"id":2,"org":"beta","type":"spot","pods":1,"gpus_per_pod":2,"duration_s":1200,"submit_s":600}`),
			json.RawMessage(`{"id":1,"org":"alpha","type":"hp","pods":1,"gpus_per_pod":1,"duration_s":3600,"submit_s":0}`),
			json.RawMessage(`{"id":3,"org":"alpha","type":"hp","pods":2,"gpus_per_pod":4,"duration_s":1800,"submit_s":900}`),
		}
	}
	spec := runspec.Spec{Scheduler: "yarn", Nodes: 2, Tasks: mkTasks()}
	st := postSpec(t, ts, spec, http.StatusAccepted)
	if st.Spec.TraceTasks != 3 || len(st.Spec.Tasks) != 0 {
		t.Fatalf("status spec should count inline tasks, not echo them: %+v", st.Spec)
	}
	done := waitState(t, ts, st.ID, StateDone, 30*time.Second)
	if done.Progress.TasksArrived != 3 {
		t.Fatalf("tasks_arrived = %d, want 3", done.Progress.TasksArrived)
	}
	got := fetchReport(t, ts, st.ID, "jsonl")
	want := referenceJSONL(t, runspec.Spec{Scheduler: "yarn", Nodes: 2}, inlineSource(mkTasks()))
	if !bytes.Equal(got, want) {
		t.Fatal("inline-trace report differs from engine replay of the same tasks")
	}
}

// traceBody generates a small JSONL trace for upload tests.
func traceBody(t *testing.T) []byte {
	t.Helper()
	var b bytes.Buffer
	for i := 0; i < 40; i++ {
		typ := "spot"
		if i%3 == 0 {
			typ = "hp"
		}
		fmt.Fprintf(&b, `{"id":%d,"org":"org-%d","type":%q,"pods":1,"gpus_per_pod":%d,"duration_s":%d,"checkpoint_s":600,"submit_s":%d}`+"\n",
			i+1, i%4, typ, 1+i%4, 1800+60*i, 120*i)
	}
	return b.Bytes()
}

func TestTraceUpload(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	body := traceBody(t)
	resp, err := http.Post(ts.URL+"/v1/sessions?scheduler=yarn&nodes=4", "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("upload = %d (body %s)", resp.StatusCode, data)
	}
	var st sessionStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if st.Spec.TraceBytes != int64(len(body)) {
		t.Fatalf("trace_bytes = %d, want %d", st.Spec.TraceBytes, len(body))
	}
	waitState(t, ts, st.ID, StateDone, 30*time.Second)

	src, err := gfs.OpenTraceReader(bytes.NewReader(body), gfs.TraceFormatAuto)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceJSONL(t, runspec.Spec{Scheduler: "yarn", Nodes: 4}, src)
	if got := fetchReport(t, ts, st.ID, "jsonl"); !bytes.Equal(got, want) {
		t.Fatal("uploaded-trace report differs from engine replay of the same file")
	}
}

func TestStreamedTraceUpload(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	body := traceBody(t)
	resp, err := http.Post(ts.URL+"/v1/sessions?scheduler=yarn&nodes=4&stream=true", "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("streamed upload = %d (body %s)", resp.StatusCode, data)
	}
	var st sessionStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("streamed upload ended %s (err %q), want done", st.State, st.Error)
	}
	src, err := gfs.OpenTraceReader(bytes.NewReader(body), gfs.TraceFormatAuto)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceJSONL(t, runspec.Spec{Scheduler: "yarn", Nodes: 4}, src)
	if got := fetchReport(t, ts, st.ID, "jsonl"); !bytes.Equal(got, want) {
		t.Fatal("streamed-trace report differs from buffered replay of the same bytes")
	}
}

// TestAutoscaleChannels: the query parameter of a trace upload and
// the JSON body of a session name the autoscaler the same way, as a
// mode string, and normalize to the same spec; the object form older
// clients sent is rejected, not silently ignored.
func TestAutoscaleChannels(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	post := func(url, contentType, body string) (int, []byte) {
		resp, err := http.Post(ts.URL+url, contentType, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, data
	}
	code, data := post("/v1/sessions?nodes=4&autoscale=predictive", "application/x-ndjson", string(traceBody(t)))
	if code != http.StatusAccepted {
		t.Fatalf("upload with ?autoscale=predictive = %d (body %s)", code, data)
	}
	var upload sessionStatus
	if err := json.Unmarshal(data, &upload); err != nil {
		t.Fatal(err)
	}
	upload.Spec.TraceTasks, upload.Spec.TraceBytes = 0, 0
	body := postSpec(t, ts, runspec.Spec{Nodes: 4, Autoscale: "predictive"}, http.StatusAccepted)
	if upload.Spec.Autoscale != "predictive" || !reflect.DeepEqual(upload.Spec, body.Spec) {
		t.Fatalf("query spec %+v, body spec %+v: want the same spec naming the predictive autoscaler", upload.Spec, body.Spec)
	}
	if code, data := post("/v1/sessions", "application/json", `{"nodes":4,"autoscale":{"mode":"predictive"}}`); code != http.StatusBadRequest {
		t.Fatalf("object-form autoscale = %d (body %s), want 400", code, data)
	}
}

// slowSpec simulates long enough to observe and cancel mid-run.
func slowSpec() runspec.Spec {
	return runspec.Spec{Scheduler: "gfs", Nodes: 64, Days: 14, SpotScale: 8}
}

func TestCancelRunningSession(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	st := postSpec(t, ts, slowSpec(), http.StatusAccepted)
	// Wait until the simulation is demonstrably in flight.
	deadline := time.Now().Add(30 * time.Second)
	for getStatus(t, ts, st.ID).Progress.Events == 0 {
		if time.Now().After(deadline) {
			t.Fatal("session produced no events")
		}
		time.Sleep(5 * time.Millisecond)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+st.ID, nil)
	cancelled := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE = %d", resp.StatusCode)
	}
	got := waitState(t, ts, st.ID, StateCancelled, 10*time.Second)
	if took := time.Since(cancelled); took > 5*time.Second {
		t.Fatalf("cancellation took %v", took)
	}
	if got.EndedAt == nil {
		t.Fatal("cancelled session missing ended_at")
	}
	// A cancelled session has no report.
	resp, err = http.Get(ts.URL + "/v1/sessions/" + st.ID + "/report?format=jsonl")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("report of cancelled session = %d, want 409", resp.StatusCode)
	}
}

func TestCancelQueuedSession(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Backlog: 4})
	first := postSpec(t, ts, slowSpec(), http.StatusAccepted)
	queued := postSpec(t, ts, smallSpec(), http.StatusAccepted)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st sessionStatus
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if st.State != StateCancelled {
		t.Fatalf("queued session after DELETE = %s, want cancelled immediately", st.State)
	}
	// Unblock the worker.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+first.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
}

func TestBacklogFullRejects(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Backlog: 1})
	running := postSpec(t, ts, slowSpec(), http.StatusAccepted)
	// Wait for the worker to pick the first session up, then fill
	// the single backlog slot.
	waitState(t, ts, running.ID, StateRunning, 30*time.Second)
	queued := postSpec(t, ts, slowSpec(), http.StatusAccepted)
	body, _ := json.Marshal(smallSpec())
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("submission over a full backlog = %d (Retry-After %q), want 503 with Retry-After: 1",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	for _, id := range []string{running.ID, queued.ID} {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
}

// panicSource is a trace source that blows up mid-replay.
type panicSource struct{}

func (panicSource) Next() (*gfs.Task, error) { panic("boom: source exploded") }
func (panicSource) Close() error             { return nil }

// TestPanickingRunFailsSession: a panic inside a run lands its
// session in failed with the panic text — sessions execute under the
// shared runner's recover — and the daemon keeps serving: a healthy
// session on the same server still reaches done.
func TestPanickingRunFailsSession(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1})
	sess, err := svc.startSession(smallSpec(), panicSource{})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-sess.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("panicking session never reached a terminal state")
	}
	st := getStatus(t, ts, sess.ID())
	if st.State != StateFailed || !strings.Contains(st.Error, "boom: source exploded") {
		t.Fatalf("panicking session = %s (err %q), want failed with the panic text", st.State, st.Error)
	}
	healthy := postSpec(t, ts, smallSpec(), http.StatusAccepted)
	waitState(t, ts, healthy.ID, StateDone, 30*time.Second)
}

func TestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []runspec.Spec{
		{Scheduler: "nope"},
		{Scheduler: "yarn", Federation: true},
		{Nodes: -1},
		{Nodes: 1 << 20},
		{Days: 365},
		{Scenario: "not-a-scenario"},
		{Route: "nope"},
	}
	for _, spec := range cases {
		postSpec(t, ts, spec, http.StatusBadRequest)
	}
	resp, err := http.Get(ts.URL + "/v1/sessions/s-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session = %d, want 404", resp.StatusCode)
	}
}

func TestEventStreamNDJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, EventBuffer: 1 << 20})
	st := postSpec(t, ts, smallSpec(), http.StatusAccepted)
	resp, err := http.Get(ts.URL + "/v1/sessions/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != "application/x-ndjson" {
		t.Fatalf("stream content type = %q", got)
	}
	var n uint64
	var lastSeq uint64
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	kinds := map[string]bool{}
	for sc.Scan() {
		var e wireEvent
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		if e.Kind == "gap" {
			t.Fatalf("unexpected gap with oversized buffer: %+v", e)
		}
		if n > 0 && e.Seq != lastSeq+1 {
			t.Fatalf("stream seq jumped %d → %d", lastSeq, e.Seq)
		}
		lastSeq = e.Seq
		n++
		kinds[e.Kind] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	done := waitState(t, ts, st.ID, StateDone, 30*time.Second)
	if n != done.Progress.Events {
		t.Fatalf("streamed %d events, session counted %d", n, done.Progress.Events)
	}
	for _, want := range []string{"TaskArrived", "TaskStarted", "TaskFinished"} {
		if !kinds[want] {
			t.Fatalf("stream missing %s events (saw %v)", want, kinds)
		}
	}
}

func TestEventStreamGap(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, EventBuffer: 8})
	st := postSpec(t, ts, smallSpec(), http.StatusAccepted)
	done := waitState(t, ts, st.ID, StateDone, 30*time.Second)
	if done.Progress.DroppedEvents == 0 {
		t.Fatal("tiny ring should have dropped events")
	}
	resp, err := http.Get(ts.URL + "/v1/sessions/" + st.ID + "/events?follow=false")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatal("empty event dump")
	}
	var first wireEvent
	if err := json.Unmarshal(sc.Bytes(), &first); err != nil {
		t.Fatal(err)
	}
	if first.Kind != "gap" || first.Dropped != done.Progress.DroppedEvents {
		t.Fatalf("first record = %+v, want gap with dropped=%d", first, done.Progress.DroppedEvents)
	}
	rest := 0
	for sc.Scan() {
		rest++
	}
	if rest != 8 {
		t.Fatalf("dump retained %d events, ring holds 8", rest)
	}
}

func TestEventStreamSSE(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, EventBuffer: 1 << 20})
	st := postSpec(t, ts, smallSpec(), http.StatusAccepted)
	waitState(t, ts, st.ID, StateDone, 30*time.Second)
	resp, err := http.Get(ts.URL + "/v1/sessions/" + st.ID + "/events?format=sse&follow=false")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != "text/event-stream" {
		t.Fatalf("SSE content type = %q", got)
	}
	data, _ := io.ReadAll(resp.Body)
	if !bytes.Contains(data, []byte("event: TaskArrived\n")) || !bytes.Contains(data, []byte("\ndata: {")) {
		t.Fatalf("SSE frames malformed:\n%s", data[:min(len(data), 400)])
	}
}

func TestReportWait(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	st := postSpec(t, ts, smallSpec(), http.StatusAccepted)
	// ?wait=true blocks until the session finishes, no 409.
	data := func() []byte {
		resp, err := http.Get(ts.URL + "/v1/sessions/" + st.ID + "/report?format=jsonl&wait=true")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("waited report = %d", resp.StatusCode)
		}
		b, _ := io.ReadAll(resp.Body)
		return b
	}()
	if want := referenceJSONL(t, smallSpec(), nil); !bytes.Equal(data, want) {
		t.Fatal("waited report differs from engine report")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	st := postSpec(t, ts, smallSpec(), http.StatusAccepted)
	waitState(t, ts, st.ID, StateDone, 30*time.Second)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	page := string(data)
	for _, want := range []string{
		"gfsd_sessions_started_total 1",
		`gfsd_sessions_finished_total{state="done"} 1`,
		"gfsd_sessions_active 0",
		"gfsd_queue_depth 0",
		"gfsd_workers 1",
		"gfsd_time_to_first_event_seconds_count 1",
		fmt.Sprintf(`gfs_allocation_rate{session="%s"}`, st.ID),
	} {
		if !strings.Contains(page, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, page)
		}
	}
	// One HELP header per family even with the session snapshot
	// merged in.
	if n := strings.Count(page, "# HELP gfs_allocation_rate "); n != 1 {
		t.Fatalf("gfs_allocation_rate HELP appears %d times", n)
	}
}

func TestSessionTTLExpiry(t *testing.T) {
	// Expiry is driven by advancing the injected clock past the TTL,
	// not by sleeping a real TTL away. The janitor still ticks on a
	// real timer (clamped to >=100ms), so the poll below only waits
	// out one sweep interval.
	clock := newFakeClock(epoch)
	_, ts := newTestServer(t, Config{Workers: 1, SessionTTL: 200 * time.Millisecond, Clock: clock})
	st := postSpec(t, ts, smallSpec(), http.StatusAccepted)
	waitState(t, ts, st.ID, StateDone, 30*time.Second)
	clock.Advance(time.Minute)
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/sessions/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("terminal session never expired")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServiceConcurrentDeterminism is the multi-tenant determinism
// gate: N clients submitting the same spec concurrently must each get
// a byte-identical JSONL report (and the same bytes the engine
// produces directly). CI runs it at GOMAXPROCS 1, 2 and 8.
func TestServiceConcurrentDeterminism(t *testing.T) {
	const clients = 6
	_, ts := newTestServer(t, Config{Workers: 4, Backlog: clients})
	want := referenceJSONL(t, smallSpec(), nil)

	ids := make([]string, clients)
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		i := i
		go func() {
			body, _ := json.Marshal(smallSpec())
			resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				errs <- fmt.Errorf("client %d: POST = %d", i, resp.StatusCode)
				return
			}
			var st sessionStatus
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				errs <- err
				return
			}
			ids[i] = st.ID
			errs <- nil
		}()
	}
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for i, id := range ids {
		waitState(t, ts, id, StateDone, 120*time.Second)
		got := fetchReport(t, ts, id, "jsonl")
		if !bytes.Equal(got, want) {
			t.Fatalf("client %d (session %s): report differs from reference", i, id)
		}
	}
}
