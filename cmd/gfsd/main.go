// Command gfsd runs the gfs simulator as a long-running multi-tenant
// HTTP service: clients submit run specs (with inline, uploaded or
// streamed traces), watch live progress over NDJSON/SSE event
// streams, cancel runs mid-flight, and fetch collected reports in
// any export format. See docs/service.md for the API cookbook.
//
// Usage:
//
//	gfsd -addr :8080 -workers 4
//	gfsd -addr 127.0.0.1:9000 -max-body 64MiB -session-ttl 1h
//
// Sessions run on a bounded shared worker pool: -workers bounds
// concurrent simulations, -backlog the queued ones (submissions
// beyond it get 503), -max-body buffered request bodies, and
// -session-ttl expires finished sessions. On SIGINT/SIGTERM the
// daemon drains gracefully: the listener closes, in-flight sessions
// get -drain-timeout to finish, then stragglers are cancelled at
// simulator-step granularity.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/sjtucitlab/gfs/internal/service"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
	backlog := flag.Int("backlog", 64, "queued sessions beyond the running ones")
	maxBody := flag.Int64("max-body", 32<<20, "max buffered request body bytes (streamed uploads exempt)")
	sessionTTL := flag.Duration("session-ttl", time.Hour, "expire finished sessions after this long (0 keeps forever)")
	eventBuffer := flag.Int("event-buffer", 16384, "most events retained per session for streaming (a bound; ring memory grows with the events emitted)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "grace for in-flight sessions on shutdown before cancellation")
	flag.Parse()

	svc := service.New(service.Config{
		Workers:      *workers,
		Backlog:      *backlog,
		MaxBodyBytes: *maxBody,
		SessionTTL:   *sessionTTL,
		EventBuffer:  *eventBuffer,
	})
	srv := &http.Server{Addr: *addr, Handler: svc}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "gfsd: listening on %s (%d workers)\n", *addr, svc.Workers())

	select {
	case err := <-errc:
		// Listener died on its own (port in use, ...).
		svc.Close()
		fail(err)
	case <-ctx.Done():
	}

	// Graceful drain: stop intake first so no submissions race the
	// pool shutdown, then let sessions finish, cancelling stragglers
	// after the drain timeout.
	fmt.Fprintln(os.Stderr, "gfsd: draining")
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "gfsd: shutdown: %v\n", err)
	}
	svc.Drain(*drainTimeout)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "gfsd: %v\n", err)
	os.Exit(1)
}
