// Command ooosimd is the simulation daemon: an HTTP service that
// executes batches of simulation points on a shared bounded worker
// pool behind a content-addressed result cache, so any point computed
// before — by any client, in any earlier process — is returned without
// simulation.
//
// Usage:
//
//	ooosimd [-addr HOST:PORT] [-cache-dir DIR] [-cache-entries N]
//	        [-workers N] [-max-queue N] [-drain-timeout D]
//	        [-journal PATH|auto|off]
//	        [-peers URL,URL,...] [-advertise URL] [-v]
//
// API (see internal/service):
//
//	POST /v1/batches             submit {"jobs":[...]} (429/503 under
//	                             admission control or drain)
//	GET  /v1/batches/{id}        poll status and results
//	GET  /v1/batches/{id}/events NDJSON progress stream
//	GET  /healthz                liveness
//	GET  /readyz                 readiness (503 while draining or full)
//	POST /drainz                 start graceful drain
//	GET  /metrics                Prometheus text metrics
//	GET  /v1/donors/{key}        warm-donor snapshot (fleet mode)
//
// Fleet mode: start several daemons with the same -peers list (every
// worker's URL, identical order everywhere) and each node's own URL in
// -advertise, then front them with cmd/ooosimfleet. Workers ship warmed
// donor snapshots to each other so each snapshot group is warmed once
// fleet-wide.
//
// Crash recovery: with a cache dir configured, the daemon keeps an
// append-only batch journal (default <cache-dir>/journal.ndjson) and on
// boot re-admits batches that were in flight when the previous process
// died. Already-journaled points hit the disk cache, so only the truly
// missing points re-simulate — byte-identically, since the simulator is
// deterministic.
//
// SIGINT or SIGTERM triggers a graceful drain: stop admitting, finish
// the queue (up to -drain-timeout), then exit.
//
// Point cmd/experiments -server at the daemon (or the fleet
// coordinator) to regenerate figures against the warm cache.
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/service"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8321", "listen address")
	cacheDir := flag.String("cache-dir", "", "disk tier of the result cache (empty: memory only)")
	cacheEntries := flag.Int("cache-entries", service.DefaultCacheEntries, "memory tier capacity, in results")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "simulation worker-pool size (shared across batches)")
	maxQueue := flag.Int("max-queue", 0, "admission bound on queued misses; 0 admits everything")
	drainTimeout := flag.Duration("drain-timeout", 60*time.Second, "how long a signal-triggered drain waits for the queue")
	journalPath := flag.String("journal", "auto", "batch recovery journal: a path, 'auto' (<cache-dir>/journal.ndjson), or 'off'")
	peers := flag.String("peers", "", "comma-separated fleet worker URLs (same list on every node); empty disables donor shipping")
	advertise := flag.String("advertise", "", "this node's own URL in -peers (enables adopting donors from peers)")
	verbose := flag.Bool("v", false, "log every request")
	flag.Parse()

	cache, err := service.NewCache(*cacheEntries, *cacheDir)
	if err != nil {
		log.Fatalf("ooosimd: %v", err)
	}
	var donors *service.DonorExchange
	if *peers != "" {
		var list []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				list = append(list, p)
			}
		}
		donors = service.NewDonorExchange(*advertise, list)
	}
	var journal *service.Journal
	switch *journalPath {
	case "off", "":
	case "auto":
		if *cacheDir != "" {
			journal, err = service.OpenJournal(filepath.Join(*cacheDir, "journal.ndjson"))
		}
	default:
		journal, err = service.OpenJournal(*journalPath)
	}
	if err != nil {
		log.Fatalf("ooosimd: journal: %v", err)
	}
	// Every finished batch logs its cache hit/miss split alongside the
	// snapshot-sharing stats (group count, warm-donor reuse rate), so
	// operators can see the snapshot-fork sharing actually engage.
	sched := service.NewScheduler(service.SchedulerOptions{
		Workers:  *workers,
		Cache:    cache,
		MaxQueue: *maxQueue,
		Donors:   donors,
		Journal:  journal,
		Log:      log.Printf,
	})
	if journal != nil {
		// Re-admit batches the previous process left in flight: journaled
		// points hit the disk cache, so only the missing ones re-simulate.
		if requeued, err := sched.Recover(); err != nil {
			log.Printf("ooosimd: journal recovery: %v", err)
		} else if requeued > 0 {
			log.Printf("ooosimd: recovered %d in-flight batch(es) from the journal", requeued)
		}
	}
	// SIGTERM is what orchestrators send; SIGINT is what operators send.
	// Either starts a graceful drain: readiness flips false (the fleet
	// coordinator stops routing here), the queue runs dry, then the
	// listener closes.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	where := *cacheDir
	if where == "" {
		where = "memory only"
	}
	log.Printf("ooosimd: listening on %s (workers=%d, cache=%s)", *addr, *workers, where)
	if err := service.Serve(ctx, "ooosimd", *addr, service.NewHandler(sched), sched.Drain, *drainTimeout, *verbose); err != nil {
		log.Fatalf("ooosimd: %v", err)
	}
}
