package service

import (
	"context"
	"fmt"
	"sync"
	"time"

	gfs "github.com/sjtucitlab/gfs"
)

// State is a session's lifecycle stage.
type State string

// Session states. A session is created queued, becomes running when a
// worker picks it up, and ends in exactly one terminal state.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Session is one accepted run: a spec, its live event log, and the
// lifecycle state machine. All mutation goes through the small method
// set here, so handlers and the worker pool can share sessions
// freely.
type Session struct {
	id      string
	spec    RunSpec
	src     gfs.TraceSource // attached trace, until runSession takes it
	log     *eventLog
	clock   Clock
	created time.Time
	ctx     context.Context
	cancel  context.CancelFunc
	// doneCh closes when the session reaches a terminal state.
	doneCh chan struct{}

	mu             sync.Mutex
	state          State
	errMsg         string
	started, ended time.Time
	outcome        gfs.BatchResult
}

// ID returns the session identifier.
func (s *Session) ID() string { return s.id }

// Done returns a channel closed when the session reaches a terminal
// state.
func (s *Session) Done() <-chan struct{} { return s.doneCh }

// State returns the current lifecycle state.
func (s *Session) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Cancel requests cooperative cancellation: a running simulation
// stops within one simulator step; a queued session is finished as
// cancelled without running. Idempotent. It returns true when THIS
// call performed the queued→cancelled transition (the caller then
// owns the metrics update); cancellation of a running session reports
// false and the worker performs the transition instead.
func (s *Session) Cancel() bool {
	s.cancel()
	s.mu.Lock()
	queued := s.state == StateQueued
	s.mu.Unlock()
	if !queued {
		return false
	}
	// Don't wait for a worker to drain the backlog entry; the
	// pool's closure sees the terminal state and skips the run.
	return s.finish(StateCancelled, gfs.BatchResult{}, context.Canceled.Error())
}

// markRunning transitions queued → running; false if the session was
// already cancelled.
func (s *Session) markRunning() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != StateQueued {
		return false
	}
	s.state = StateRunning
	s.started = s.clock.Now()
	return true
}

// finish moves the session to a terminal state, recording the outcome
// and closing the done channel and event stream. It also releases the
// session context, which would otherwise stay registered with the
// server's root context for the daemon's lifetime. The first caller
// wins; later calls are no-ops returning false.
func (s *Session) finish(st State, out gfs.BatchResult, errMsg string) bool {
	s.mu.Lock()
	if s.state.Terminal() {
		s.mu.Unlock()
		return false
	}
	s.state = st
	s.outcome = out
	s.errMsg = errMsg
	s.ended = s.clock.Now()
	s.mu.Unlock()
	s.cancel()
	s.log.close()
	close(s.doneCh)
	return true
}

// result returns the terminal outcome (zero until done).
func (s *Session) result() gfs.BatchResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.outcome
}

// sessionStatus is the JSON view of a session served by
// GET /v1/sessions/{id} and embedded in create/cancel responses.
type sessionStatus struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	Error string `json:"error,omitempty"`
	// Wall-clock lifecycle timestamps.
	CreatedAt time.Time  `json:"created_at"`
	StartedAt *time.Time `json:"started_at,omitempty"`
	EndedAt   *time.Time `json:"ended_at,omitempty"`
	// TimeToFirstEventMS is the wall-clock latency from submission
	// to the first simulator event (0 until one fires).
	TimeToFirstEventMS float64  `json:"time_to_first_event_ms,omitempty"`
	Progress           Progress `json:"progress"`
	Spec               RunSpec  `json:"spec"`
}

// status snapshots the session for serving.
func (s *Session) status() sessionStatus {
	s.mu.Lock()
	st := sessionStatus{
		ID:        s.id,
		State:     s.state,
		Error:     s.errMsg,
		CreatedAt: s.created,
		Spec:      s.spec,
	}
	if !s.started.IsZero() {
		t := s.started
		st.StartedAt = &t
	}
	if !s.ended.IsZero() {
		t := s.ended
		st.EndedAt = &t
	}
	s.mu.Unlock()
	if first := s.log.firstEventAt(); !first.IsZero() {
		st.TimeToFirstEventMS = float64(first.Sub(s.created)) / float64(time.Millisecond)
	}
	st.Progress = s.log.progress()
	return st
}

// registry tracks sessions by id, in creation order.
type registry struct {
	clock    Clock
	mu       sync.Mutex
	seq      uint64
	sessions map[string]*Session
	order    []*Session
}

func newRegistry(clock Clock) *registry {
	return &registry{clock: clock, sessions: make(map[string]*Session)}
}

// add creates a queued session under the parent context.
func (r *registry) add(parent context.Context, spec RunSpec, src gfs.TraceSource, eventBuffer int) *Session {
	ctx, cancel := context.WithCancel(parent)
	r.mu.Lock()
	r.seq++
	s := &Session{
		id:      fmt.Sprintf("s-%06d", r.seq),
		spec:    spec,
		src:     src,
		log:     newEventLog(eventBuffer, r.clock),
		clock:   r.clock,
		created: r.clock.Now(),
		ctx:     ctx,
		cancel:  cancel,
		doneCh:  make(chan struct{}),
		state:   StateQueued,
	}
	r.sessions[s.id] = s
	r.order = append(r.order, s)
	r.mu.Unlock()
	return s
}

// get looks a session up by id.
func (r *registry) get(id string) (*Session, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.sessions[id]
	return s, ok
}

// remove drops a session (used when pool submission fails).
func (r *registry) remove(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.sessions[id]; !ok {
		return
	}
	delete(r.sessions, id)
	for i, s := range r.order {
		if s.id == id {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
}

// list returns sessions in creation order.
func (r *registry) list() []*Session {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Session(nil), r.order...)
}

// sweep removes terminal sessions that ended more than ttl ago,
// returning how many were expired.
func (r *registry) sweep(now time.Time, ttl time.Duration) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	kept := r.order[:0]
	expired := 0
	for _, s := range r.order {
		s.mu.Lock()
		gone := s.state.Terminal() && now.Sub(s.ended) > ttl
		s.mu.Unlock()
		if gone {
			delete(r.sessions, s.id)
			expired++
			continue
		}
		kept = append(kept, s)
	}
	r.order = kept
	return expired
}
