package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	gfs "github.com/sjtucitlab/gfs"
	"github.com/sjtucitlab/gfs/internal/baselines"
	"github.com/sjtucitlab/gfs/internal/experiments"
	"github.com/sjtucitlab/gfs/internal/service"
)

// sessionSpec is one of the four session kinds the closed loop cycles
// through.
type sessionSpec struct {
	name        string
	contentType string
	body        []byte
	// digest is the SHA-256 of the JSONL report a direct gfs.NewEngine
	// run of the spec produces; every session's report must equal it.
	digest string
	// direct is how long that direct run took (engine share).
	direct time.Duration
}

// The daemon runs with two settings off their defaults, both so that
// the workload measures what it is for. gfsd keeps finished sessions
// for an hour and gives each a 16,384-slot event ring (3.4 MB): at
// hundreds of sessions per second that is gigabytes of live heap, and
// allocating and scanning the rings then costs more than everything
// else a session does (13 ms per session against 5 ms, measured). A
// 2,048-slot ring still holds the longest stream here (1,350 events)
// with half again to spare (a dropped event fails the session), and
// the 2 s TTL bounds what the registry retains while leaving a
// stalled client ample time to fetch its report.
const (
	sessionTTL  = 2 * time.Second
	eventBuffer = 2048
)

// serviceSpecs builds the fixed cycle of four specs. Only the upload
// depends on the seed: the three JSON specs name the daemon's own
// generated workloads.
func serviceSpecs(c *config) ([]*sessionSpec, error) {
	small := experiments.SmallScale()
	upload, err := gzipCSV(seededTrace(small, 2, c.seed))
	if err != nil {
		return nil, err
	}
	specs := []*sessionSpec{
		{name: "yarn4", contentType: "application/json", body: []byte(`{"scheduler":"yarn","nodes":4}`)},
		{name: "default", contentType: "application/json", body: []byte(`{}`)},
		{name: "rack-failure", contentType: "application/json", body: []byte(`{"scheduler":"gfs","nodes":16,"scenario":"rack-failure"}`)},
		{name: "upload", contentType: "application/gzip", body: upload},
	}
	for _, sp := range specs {
		// Three runs, the median's time: the first is cold.
		var times []float64
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			report, err := directRun(sp)
			if err != nil {
				return nil, fmt.Errorf("direct run of %s: %w", sp.name, err)
			}
			times = append(times, time.Since(t0).Seconds())
			sp.digest = hashHex(report)
		}
		sp.direct = time.Duration(median(times) * float64(time.Second))
	}
	return specs, nil
}

// directRun executes a spec through gfs.NewEngine as the daemon's
// runSpec does (it is unexported) and returns the JSONL report.
func directRun(sp *sessionSpec) ([]byte, error) {
	body := sp.body
	if sp.contentType != "application/json" {
		body = []byte(`{}`) // a trace upload carries its spec in the (empty) query
	}
	rs, err := service.DecodeRunSpec(body)
	if err != nil {
		return nil, err
	}
	scale := experiments.SmallScale()
	scale.Nodes, scale.GPUsPerNode, scale.Days, scale.Seed = rs.Nodes, rs.GPUsPerNode, rs.Days, rs.Seed
	collectors := gfs.DefaultCollectors()
	var opts []gfs.Option
	switch rs.Scheduler {
	case "gfs":
	case "yarn":
		opts = append(opts, gfs.WithScheduler(baselines.NewYARNCS()), gfs.WithQuota(nil))
	default:
		return nil, fmt.Errorf("scheduler %q not mirrored by the benchmark", rs.Scheduler)
	}
	upload := sp.contentType != "application/json"
	if upload {
		src, err := gfs.OpenTraceReader(bytes.NewReader(sp.body), gfs.TraceFormatAuto)
		if err != nil {
			return nil, err
		}
		opts = append(opts, gfs.WithTraceSource(src))
	}
	opts = append(opts, gfs.WithCollectors(collectors...))
	if rs.Scenario != "" {
		sc, err := scale.NamedScenario(rs.Scenario)
		if err != nil {
			return nil, err
		}
		opts = append(opts, gfs.WithScenario(sc))
	}
	eng := gfs.NewEngine(scale.NewCluster(), opts...)
	if upload {
		_, err = eng.RunTrace()
	} else {
		eng.Run(scale.Trace(rs.SpotScale))
	}
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := gfs.AssembleReport(collectors...).WriteJSONL(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// daemon is one in-process gfsd behind an HTTP test server.
type daemon struct {
	svc    *service.Server
	ts     *httptest.Server
	client *http.Client
}

func startDaemon(procs int) *daemon {
	svc := service.New(service.Config{Workers: procs, SessionTTL: sessionTTL, EventBuffer: eventBuffer})
	ts := httptest.NewServer(svc)
	client := ts.Client()
	if t, ok := client.Transport.(*http.Transport); ok {
		t.MaxIdleConnsPerHost = procs
		t.MaxConnsPerHost = procs
	}
	return &daemon{svc: svc, ts: ts, client: client}
}

func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	d.ts.Close()
	d.svc.Close()
}

// sessionSample is the client's view of one session.
type sessionSample struct {
	total, post, ttfe, fetch time.Duration
	events, streamBytes      int
	reportBytes              int
	gaps                     int
	status503, status5xx     int
	err                      error
}

// runSession drives one session: POST the spec, read the NDJSON event
// stream to its end, fetch the JSONL report. With a recorder each
// round trip is a span.
func (d *daemon) runSession(sp *sessionSpec, tr *recorder) (s sessionSample) {
	fail := func(format string, args ...any) sessionSample {
		s.err = fmt.Errorf("%s: "+format, append([]any{sp.name}, args...)...)
		return s
	}
	note := func(code int) {
		if code == http.StatusServiceUnavailable {
			s.status503++
		}
		if code >= 500 {
			s.status5xx++
		}
	}
	tr.begin("op")
	defer tr.end()
	t0 := time.Now()

	tr.begin("service.post")
	resp, err := d.client.Post(d.ts.URL+"/v1/sessions", sp.contentType, bytes.NewReader(sp.body))
	if err != nil {
		tr.end()
		return fail("POST: %v", err)
	}
	var st struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	tr.end()
	accepted := time.Now()
	s.post = accepted.Sub(t0)
	note(resp.StatusCode)
	if resp.StatusCode != http.StatusAccepted {
		return fail("POST: %s", resp.Status)
	}
	if err != nil {
		return fail("POST body: %v", err)
	}

	tr.begin("service.stream")
	resp, err = d.client.Get(d.ts.URL + "/v1/sessions/" + st.ID + "/events")
	if err != nil {
		tr.end()
		return fail("events: %v", err)
	}
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			if s.events == 0 {
				s.ttfe = time.Since(accepted)
			}
			s.events++
			s.streamBytes += len(line)
			if bytes.Contains(line, []byte(`"kind":"gap"`)) {
				s.gaps++
			}
		}
		if err != nil {
			break
		}
	}
	resp.Body.Close()
	tr.end()
	note(resp.StatusCode)
	if resp.StatusCode != http.StatusOK {
		return fail("events: %s", resp.Status)
	}

	tr.begin("service.report")
	f0 := time.Now()
	resp, err = d.client.Get(d.ts.URL + "/v1/sessions/" + st.ID + "/report?format=jsonl&wait=true")
	if err != nil {
		tr.end()
		return fail("report: %v", err)
	}
	report, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	tr.end()
	s.fetch = time.Since(f0)
	s.total = time.Since(t0)
	s.reportBytes = len(report)
	note(resp.StatusCode)
	switch {
	case err != nil:
		return fail("report body: %v", err)
	case resp.StatusCode != http.StatusOK:
		// 409: the session ended failed or cancelled, not done.
		return fail("report: %s", resp.Status)
	case s.gaps > 0:
		return fail("stream dropped events (%d gap records)", s.gaps)
	case hashHex(report) != sp.digest:
		return fail("report differs from the direct engine run")
	}
	return s
}

// runSessions drives the closed loop: procs clients, each starting its
// next session only after the previous one completed, cycling through
// the specs, until d has elapsed or limit sessions have started (0 =
// no limit); every client runs at least one. With traced set every client records spans, merged into
// the returned recorder.
func (d *daemon) runSessions(specs []*sessionSpec, procs int, dur time.Duration, limit int64, traced bool) ([]sessionSample, time.Duration, *recorder) {
	var next atomic.Int64
	var wg sync.WaitGroup
	samples := make([][]sessionSample, procs)
	recorders := make([]*recorder, procs)
	start := time.Now()
	for w := 0; w < procs; w++ {
		if traced {
			recorders[w] = newRecorder()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for first := true; first || time.Since(start) < dur; first = false {
				i := next.Add(1) - 1
				if limit > 0 && i >= limit {
					return
				}
				tr := recorders[w]
				if tr != nil {
					tr.op = int32(i)
				}
				samples[w] = append(samples[w], d.runSession(specs[i%int64(len(specs))], tr))
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	var all []sessionSample
	for _, s := range samples {
		all = append(all, s...)
	}
	var tr *recorder
	if traced {
		tr = recorders[0]
		for _, o := range recorders[1:] {
			tr.merge(o)
		}
	}
	return all, wall, tr
}
