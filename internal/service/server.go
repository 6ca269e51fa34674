package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"runtime"
	"time"

	gfs "github.com/sjtucitlab/gfs"
	"github.com/sjtucitlab/gfs/internal/runspec"
)

// Config sizes a Server. Zero fields take defaults.
type Config struct {
	// Workers bounds concurrent simulations (default GOMAXPROCS).
	Workers int
	// Backlog bounds queued-but-not-running sessions; submissions
	// beyond it are rejected with 503 (default 64).
	Backlog int
	// MaxBodyBytes caps buffered request bodies — specs, inline
	// traces, and non-streamed trace uploads (default 32 MiB).
	// Streamed uploads (?stream=true) are exempt: they never buffer.
	MaxBodyBytes int64
	// SessionTTL expires terminal sessions this long after they end;
	// 0 or negative keeps them forever (until restart).
	SessionTTL time.Duration
	// EventBuffer bounds how many events each session's ring retains
	// for streaming (default 16384). It is a bound, not a
	// preallocation: a ring takes memory in slabs of 256 events as
	// they are emitted, so a session's ring costs what its run emits,
	// up to the bound.
	EventBuffer int
	// Clock supplies wall-clock reads (default the real clock).
	// Tests inject a manual clock to drive TTL expiry and latency
	// metrics without sleeping.
	Clock Clock
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Backlog <= 0 {
		c.Backlog = 64
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.EventBuffer <= 0 {
		c.EventBuffer = 16384
	}
	if c.Clock == nil {
		c.Clock = realClock{}
	}
	return c
}

// Server is the gfsd daemon core: session registry, worker pool,
// metrics, and the HTTP API over them. It implements http.Handler, so
// tests mount it on httptest and cmd/gfsd on a net/http server.
type Server struct {
	cfg  Config
	reg  *registry
	pool *pool
	met  *daemonMetrics
	mux  *http.ServeMux
	// root parents every session context; Close/Drain cancel it.
	root context.Context
	stop context.CancelFunc
	// janitorDone closes when the TTL sweeper exits (nil without a
	// TTL).
	janitorDone chan struct{}
}

// New builds a Server and starts its worker pool (and, with a
// SessionTTL, the expiry sweeper). Callers must Close or Drain it.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	root, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg:  cfg,
		reg:  newRegistry(cfg.Clock),
		pool: newPool(cfg.Workers, cfg.Backlog),
		met:  &daemonMetrics{},
		mux:  http.NewServeMux(),
		root: root,
		stop: stop,
	}
	s.mux.HandleFunc("POST /v1/sessions", s.handleCreate)
	s.mux.HandleFunc("GET /v1/sessions", s.handleList)
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.handleGet)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/sessions/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/sessions/{id}/report", s.handleReport)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	if cfg.SessionTTL > 0 {
		s.janitorDone = make(chan struct{})
		go s.janitor(cfg.SessionTTL)
	}
	return s
}

// Workers returns the resolved worker-pool size.
func (s *Server) Workers() int { return s.cfg.Workers }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// janitor periodically expires terminal sessions past their TTL. A
// session outlives its TTL by up to one interval, and under steady
// load the registry peaks at TTL + interval worth of finished
// sessions, so the interval is a sixteenth of the TTL: a peak 6 %
// above what the TTL retains, where a quarter held 25 % more.
func (s *Server) janitor(ttl time.Duration) {
	defer close(s.janitorDone)
	interval := ttl / 16
	if interval < 100*time.Millisecond {
		interval = 100 * time.Millisecond
	}
	if interval > 30*time.Second {
		interval = 30 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.root.Done():
			return
		case <-t.C:
			s.reg.sweep(s.cfg.Clock.Now(), ttl)
		}
	}
}

// Drain shuts the server down gracefully: intake stops, queued and
// running sessions get up to timeout to complete, then the session
// root context is cancelled so stragglers finish as cancelled within
// one simulator step. Callers should stop the HTTP listener first
// (http.Server.Shutdown) so no new submissions race the drain.
func (s *Server) Drain(timeout time.Duration) {
	if timeout > 0 {
		t := time.AfterFunc(timeout, s.stop)
		defer t.Stop()
	}
	s.pool.drain()
	s.stop()
	if s.janitorDone != nil {
		<-s.janitorDone
	}
}

// Close shuts the server down immediately: every session is cancelled
// and the pool drained. For tests and fatal-error paths.
func (s *Server) Close() {
	s.stop()
	s.pool.drain()
	if s.janitorDone != nil {
		<-s.janitorDone
	}
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// shedLoad answers a submission the pool refused (full backlog or
// draining) with 503 and a Retry-After hint: both conditions clear
// within a session's runtime, so well-behaved clients back off
// briefly instead of hammering the intake.
func shedLoad(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After", "1")
	httpError(w, http.StatusServiceUnavailable, "%v", err)
}

// writeJSON writes a JSON response body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

// session resolves the {id} path segment, writing a 404 on a miss.
func (s *Server) session(w http.ResponseWriter, r *http.Request) (*Session, bool) {
	id := r.PathValue("id")
	sess, ok := s.reg.get(id)
	if !ok {
		httpError(w, http.StatusNotFound, "no session %q", id)
	}
	return sess, ok
}

// startSession registers a queued session and hands it to the pool.
// On a full backlog the session is unwound and the trace source
// closed.
func (s *Server) startSession(spec RunSpec, src gfs.TraceSource) (*Session, error) {
	sess := s.reg.add(s.root, spec, src, s.cfg.EventBuffer)
	if err := s.pool.submit(func() { s.runSession(sess) }); err != nil {
		s.reg.remove(sess.ID())
		sess.cancel()
		if src != nil {
			src.Close()
		}
		return nil, err
	}
	s.met.sessionStarted()
	return sess, nil
}

// cancelSession cancels a session, taking the metrics update when the
// cancel itself finished a queued session.
func (s *Server) cancelSession(sess *Session) {
	if sess.Cancel() {
		s.met.sessionFinished(StateCancelled)
	}
}

// runSession executes one session on a pool worker.
func (s *Server) runSession(sess *Session) {
	// The worker owns the trace source from here: it runs or closes
	// it, and the session forgets it so a finished session does not
	// pin a consumed decoder's buffers until its TTL expires.
	src := sess.src
	sess.src = nil
	if sess.ctx.Err() != nil || sess.State() != StateQueued {
		// Cancelled (or force-finished) while queued: never ran.
		if src != nil {
			src.Close()
		}
		if sess.finish(StateCancelled, gfs.BatchResult{}, context.Canceled.Error()) {
			s.met.sessionFinished(StateCancelled)
		}
		return
	}
	sess.markRunning()
	obs := gfs.ObserverFunc(func(e gfs.Event) {
		if sess.log.append(e) {
			s.met.recordTTFE(s.cfg.Clock.Now().Sub(sess.created))
		}
	})
	// The shared builder and runner: the construction gfsim executes,
	// under RunBatch's panic recover, so a run that panics fails its
	// session instead of killing the daemon.
	var out gfs.BatchResult
	if built, err := runspec.Build(sess.spec, src, obs); err != nil {
		out.Err = err
	} else {
		out = built.Run(sess.ctx)
	}
	// Sessions serve reports only; don't pin the run's task tables
	// until the TTL expires.
	out.Result, out.Fed = nil, nil
	var st State
	var msg string
	switch err := out.Err; {
	case err == nil:
		st = StateDone
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		st, msg = StateCancelled, err.Error()
	default:
		st, msg = StateFailed, err.Error()
	}
	if sess.finish(st, out, msg) {
		s.met.sessionFinished(st)
	}
}

// handleCreate accepts a new session. An application/json (or bare)
// body is a RunSpec, optionally carrying an inline trace; any other
// content type is a trace body (format auto-detected, gzip included)
// with the spec in query parameters. ?stream=true replays the body
// without buffering and responds only when the session ends.
func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	ct := r.Header.Get("Content-Type")
	mt, _, _ := mime.ParseMediaType(ct)
	if ct == "" || mt == "application/json" {
		s.createFromSpec(w, r)
		return
	}
	s.createFromTrace(w, r)
}

// createFromSpec handles the JSON-spec submission arm.
func (s *Server) createFromSpec(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	raw, err := io.ReadAll(body)
	if err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		httpError(w, code, "bad spec: %v", err)
		return
	}
	spec, err := DecodeRunSpec(raw)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad spec: %v", err)
		return
	}
	var src gfs.TraceSource
	if len(spec.Tasks) > 0 {
		src = inlineSource(spec.Tasks)
		spec.TraceTasks = len(spec.Tasks)
		spec.Tasks = nil
	}
	sess, err := s.startSession(spec, src)
	if err != nil {
		shedLoad(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, sess.status())
}

// createFromTrace handles the trace-body submission arm.
func (s *Server) createFromTrace(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	spec, err := specFromQuery(q)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad spec: %v", err)
		return
	}
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, "bad spec: %v", err)
		return
	}
	if q.Get("stream") == "true" || q.Get("stream") == "1" {
		// Streamed replay: the source reads the request body as the
		// simulated clock advances, so the handler must outlive the
		// run — it blocks until the session ends and reports the
		// final state.
		src, err := gfs.OpenTraceReader(r.Body, gfs.TraceFormatAuto)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad trace: %v", err)
			return
		}
		sess, err := s.startSession(spec, src)
		if err != nil {
			shedLoad(w, err)
			return
		}
		select {
		case <-sess.Done():
		case <-r.Context().Done():
			// Client went away mid-stream; the replay cannot finish.
			s.cancelSession(sess)
			<-sess.Done()
		}
		writeJSON(w, http.StatusOK, sess.status())
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		httpError(w, code, "reading trace: %v", err)
		return
	}
	src, err := gfs.OpenTraceReader(bytes.NewReader(data), gfs.TraceFormatAuto)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad trace: %v", err)
		return
	}
	spec.TraceBytes = int64(len(data))
	sess, err := s.startSession(spec, src)
	if err != nil {
		shedLoad(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, sess.status())
}

// handleList serves every session's status in creation order.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	sessions := s.reg.list()
	out := struct {
		Sessions []sessionStatus `json:"sessions"`
	}{Sessions: make([]sessionStatus, 0, len(sessions))}
	for _, sess := range sessions {
		out.Sessions = append(out.Sessions, sess.status())
	}
	writeJSON(w, http.StatusOK, out)
}

// handleGet serves one session's status and live progress.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, sess.status())
}

// handleCancel cancels a session (idempotent) and returns its status.
// A running simulation observes the cancellation within one simulator
// step; the terminal state lands moments later, so callers poll the
// status until it reads cancelled.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	s.cancelSession(sess)
	writeJSON(w, http.StatusOK, sess.status())
}

// reportContentTypes maps each report format to the Content-Type it
// is served under.
var reportContentTypes = map[string]string{
	"text":  "text/plain; charset=utf-8",
	"jsonl": "application/x-ndjson",
	"csv":   "text/csv",
	"prom":  "text/plain; version=0.0.4",
}

// handleReport serves a finished session's collected report.
// ?format= picks text (default), jsonl, csv or prom; ?wait=true
// blocks until the session ends instead of returning 409.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "text"
	}
	if err := runspec.CheckReportFormat(format); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if r.URL.Query().Get("wait") == "true" {
		select {
		case <-sess.Done():
		case <-r.Context().Done():
			return
		}
	}
	st := sess.status()
	if !st.State.Terminal() {
		httpError(w, http.StatusConflict, "session %s is %s; retry when finished or pass ?wait=true", sess.ID(), st.State)
		return
	}
	if st.State != StateDone {
		httpError(w, http.StatusConflict, "session %s %s: %s", sess.ID(), st.State, st.Error)
		return
	}
	w.Header().Set("Content-Type", reportContentTypes[format])
	// A write error means the headers are gone; nothing left to do
	// but drop the connection mid-body.
	_ = runspec.WriteReport(w, sess.result(), format)
}

// handleMetrics serves the daemon's operational counters followed by
// the merged Prometheus snapshot of every finished session's report,
// each tagged with a session label.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := s.met.write(w, s.pool.queueDepth(), s.pool.active(), s.cfg.Workers); err != nil {
		return
	}
	var reports []gfs.LabeledReport
	for _, sess := range s.reg.list() {
		if sess.State() != StateDone {
			continue
		}
		// A federated run contributes its aggregate view.
		out := sess.result()
		rep := out.Report
		if out.FedReport != nil {
			rep = out.FedReport.Aggregate
		}
		reports = append(reports, gfs.LabeledReport{Label: sess.ID(), Report: rep})
	}
	gfs.WritePrometheusLabeled(w, "session", reports)
}
