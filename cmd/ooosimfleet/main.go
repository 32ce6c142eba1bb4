// Command ooosimfleet is the fleet coordinator: it fronts N ooosimd
// workers with the same batch API one worker exposes, sharding each
// batch's points across the workers by result fingerprint.
//
// Usage:
//
//	ooosimfleet -worker URL [-worker URL ...]
//	            [-addr HOST:PORT] [-max-queue N]
//	            [-ping-interval D] [-ping-timeout D]
//	            [-breaker-threshold N] [-breaker-cooldown D]
//	            [-retry-budget N] [-drain-timeout D] [-v]
//
// Clients cannot tell the coordinator from a single daemon — the sweep
// runner, cmd/experiments -server, and cmd/ooosimload all work
// unchanged against it. Inside, identical points always route to the
// same worker (cross-node singleflight plus clean cache partitioning),
// points the coordinator has relayed before are answered from its own
// memory without contacting a worker, concurrent batches sharing a
// point submit it downstream once, and a
// worker that dies mid-batch has its unfinished points re-routed to the
// survivors — results are byte-identical either way, because the
// simulator is deterministic.
//
// SIGINT or SIGTERM triggers a graceful drain, exactly like a worker.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/service"
)

// workerList collects repeated -worker flags.
type workerList []string

func (w *workerList) String() string { return fmt.Sprint(*w) }
func (w *workerList) Set(v string) error {
	*w = append(*w, v)
	return nil
}

func main() {
	var workers workerList
	flag.Var(&workers, "worker", "worker base URL (repeat per worker)")
	addr := flag.String("addr", "127.0.0.1:8320", "listen address")
	maxQueue := flag.Int("max-queue", 0, "admission bound on queued misses; 0 admits everything")
	pingInterval := flag.Duration("ping-interval", time.Second, "worker readiness probe interval")
	pingTimeout := flag.Duration("ping-timeout", 2*time.Second, "per-round readiness probe timeout")
	breakerThreshold := flag.Int("breaker-threshold", 3, "consecutive failures that open a worker's circuit breaker")
	breakerCooldown := flag.Duration("breaker-cooldown", 5*time.Second, "how long an open breaker refuses a worker before probation")
	retryBudget := flag.Int("retry-budget", 0, "node failures one point may survive before erroring; 0 = breaker-threshold+3")
	drainTimeout := flag.Duration("drain-timeout", 60*time.Second, "how long a signal-triggered drain waits for the queue")
	verbose := flag.Bool("v", false, "log every request")
	flag.Parse()

	coord, err := fleet.New(fleet.Options{
		Workers:          workers,
		MaxQueue:         *maxQueue,
		PingInterval:     *pingInterval,
		PingTimeout:      *pingTimeout,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
		RetryBudget:      *retryBudget,
		Log:              log.Printf,
	})
	if err != nil {
		log.Fatalf("ooosimfleet: %v", err)
	}
	defer coord.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	log.Printf("ooosimfleet: listening on %s, fronting %d worker(s)", *addr, len(workers))
	if err := service.Serve(ctx, "ooosimfleet", *addr, fleet.NewHandler(coord), coord.Drain, *drainTimeout, *verbose); err != nil {
		log.Fatalf("ooosimfleet: %v", err)
	}
}
