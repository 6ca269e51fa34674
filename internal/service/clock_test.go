package service

import (
	"context"
	"sync"
	"testing"
	"time"

	gfs "github.com/sjtucitlab/gfs"
)

// fakeClock is a manually-advanced Clock. Tests drive TTL expiry and
// latency metrics by advancing it instead of sleeping, so the
// assertions are exact and the tests are immune to scheduler stalls.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock(start time.Time) *fakeClock {
	return &fakeClock{now: start}
}

// Now implements Clock.
func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d.
func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// epoch is an arbitrary fixed start for fake clocks.
var epoch = time.Date(2026, 2, 3, 4, 5, 6, 0, time.UTC)

// TestRegistrySweepFakeClock pins TTL expiry semantics without HTTP,
// sleeps, or a janitor goroutine: only sessions that are BOTH terminal
// and past their TTL leave the registry.
func TestRegistrySweepFakeClock(t *testing.T) {
	clock := newFakeClock(epoch)
	reg := newRegistry(clock)
	ttl := time.Hour

	done := reg.add(context.Background(), RunSpec{}, nil, 4)
	done.finish(StateDone, gfs.BatchResult{}, "")
	clock.Advance(30 * time.Minute)
	running := reg.add(context.Background(), RunSpec{}, nil, 4)
	running.markRunning()

	if n := reg.sweep(clock.Now(), ttl); n != 0 {
		t.Fatalf("sweep at +30m expired %d sessions, want 0", n)
	}
	clock.Advance(31 * time.Minute) // done ended 61m ago, past TTL
	if n := reg.sweep(clock.Now(), ttl); n != 1 {
		t.Fatalf("sweep at +61m expired %d sessions, want 1", n)
	}
	if _, ok := reg.get(done.ID()); ok {
		t.Fatal("terminal session survived its TTL")
	}
	if _, ok := reg.get(running.ID()); !ok {
		t.Fatal("running session was swept; TTL must only expire terminal sessions")
	}
	// A session is never expired relative to its end, not its start:
	// finish the second session and confirm it gets a full TTL from
	// that moment even though it was created long ago.
	running.finish(StateCancelled, gfs.BatchResult{}, "test")
	if n := reg.sweep(clock.Now(), ttl); n != 0 {
		t.Fatalf("freshly-finished session swept immediately, expired %d", n)
	}
	clock.Advance(ttl + time.Minute)
	if n := reg.sweep(clock.Now(), ttl); n != 1 {
		t.Fatalf("finished session never expired, got %d", n)
	}
}

// TestSessionTimestampsFakeClock pins the lifecycle timestamps and the
// time-to-first-event metric to exact values: with an injected clock
// the daemon's latency arithmetic is deterministic, not approximately
// slept-for.
func TestSessionTimestampsFakeClock(t *testing.T) {
	clock := newFakeClock(epoch)
	reg := newRegistry(clock)
	sess := reg.add(context.Background(), RunSpec{}, nil, 4)
	if got := sess.status().CreatedAt; !got.Equal(epoch) {
		t.Fatalf("CreatedAt = %v, want %v", got, epoch)
	}

	clock.Advance(2 * time.Second)
	sess.markRunning()
	clock.Advance(250 * time.Millisecond)
	sess.log.append(gfs.Event{Kind: gfs.AllocSampled, Used: 1, Capacity: 8})

	st := sess.status()
	if st.StartedAt == nil || !st.StartedAt.Equal(epoch.Add(2*time.Second)) {
		t.Fatalf("StartedAt = %v, want %v", st.StartedAt, epoch.Add(2*time.Second))
	}
	if st.TimeToFirstEventMS != 2250 {
		t.Fatalf("TimeToFirstEventMS = %v, want 2250", st.TimeToFirstEventMS)
	}

	clock.Advance(time.Second)
	sess.finish(StateDone, gfs.BatchResult{}, "")
	st = sess.status()
	if st.EndedAt == nil || !st.EndedAt.Equal(epoch.Add(3250*time.Millisecond)) {
		t.Fatalf("EndedAt = %v, want %v", st.EndedAt, epoch.Add(3250*time.Millisecond))
	}
}
