// Command ooosimload is the fleet load generator: it drives batch
// traffic at a daemon or coordinator and reports throughput, tail
// latency and backpressure behaviour.
//
// Usage:
//
//	ooosimload [-url URL | -inprocess N] [-duration D] [-concurrency N]
//	           [-batch-size N] [-distinct N] [-insts N] [-seed N]
//	           [-chaos SEED [-chaos-batches N]]
//
// With -url it targets a running ooosimd or ooosimfleet. With
// -inprocess N it boots a self-contained fleet first (fleet.NewLoopback:
// N workers with donor shipping wired plus a coordinator, all on
// loopback), which is the one-command way to measure fleet behaviour
// (and what the CI fleet-e2e job uses).
//
// Each of -concurrency clients loops for -duration: draw -batch-size
// points from the first -distinct points of the fleet load space
// (experiments.LoadPoints, the space the benchmark's fleet workloads
// serve; the ratio of the two sets the cache-hit rate), submit, stream
// to completion, record the submit-to-done latency. -seed seeds only
// these draws. A 429 (admission control) is counted, honoured by
// backing off for the server's Retry-After, and retried — backpressure
// is a result here, not an error.
//
// The report: the measured load window, batches, points, point errors,
// 429s, points/s over that window, and latency p50/p90/p99.
//
// Chaos mode (-chaos SEED, requires -inprocess): instead of measuring
// throughput, run the self-healing acceptance soak. Pass one computes
// fault-free reference bytes on a local scheduler; pass two boots the
// in-process fleet with the seed's aggressive fault plan injected at
// every distributed seam (client and coordinator HTTP, donor fetches,
// worker disk caches), kills one worker after the first batch, and
// drives -chaos-batches batches through the fray. Each batch runs
// twice: once as the fleet serves it (repeats may come from the
// coordinator's memory), and once through a fresh coordinator over the
// same workers, so every point, repeats included, also routes to the
// faulty workers. The run fails unless every point completes with
// bytes identical to the reference — zero lost points, zero
// divergence. The same seed replays the same faults.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/service"
	"repro/internal/stats"
)

func main() {
	url := flag.String("url", "", "target daemon or coordinator base URL")
	inprocess := flag.Int("inprocess", 0, "boot an in-process fleet with this many workers (alternative to -url)")
	duration := flag.Duration("duration", 10*time.Second, "how long to generate load")
	concurrency := flag.Int("concurrency", 4, "concurrent client loops")
	batchSize := flag.Int("batch-size", 8, "points per batch")
	distinct := flag.Int("distinct", 64, "distinct points to draw batches from")
	insts := flag.Uint64("insts", 1500, "instructions per point")
	seed := flag.Int64("seed", 1, "workload draw seed")
	maxQueue := flag.Int("max-queue", 256, "admission bound for the in-process fleet's coordinator")
	chaosSeed := flag.Int64("chaos", 0, "run the chaos soak with this fault-plan seed (requires -inprocess)")
	chaosBatches := flag.Int("chaos-batches", 8, "batches the chaos soak drives")
	flag.Parse()

	if (*url == "") == (*inprocess == 0) {
		log.Fatalf("ooosimload: exactly one of -url or -inprocess is required")
	}
	sizes := []string{"concurrency", "batch-size", "distinct"}
	if *chaosSeed != 0 {
		sizes = append(sizes, "chaos-batches")
	}
	for _, name := range sizes {
		if v := flag.Lookup(name).Value.(flag.Getter).Get().(int); v < 1 {
			fmt.Fprintf(os.Stderr, "ooosimload: -%s must be at least 1, got %d\n", name, v)
			os.Exit(2)
		}
	}
	points := experiments.LoadPoints(*distinct, *insts, 42) // -seed seeds only the draws
	if *chaosSeed != 0 {
		if *inprocess <= 0 {
			log.Fatalf("ooosimload: -chaos requires -inprocess")
		}
		if err := runChaos(*chaosSeed, *inprocess, points, *batchSize, *chaosBatches); err != nil {
			log.Fatalf("ooosimload: chaos soak FAILED: %v", err)
		}
		fmt.Println("chaos soak PASSED: zero lost points, all bytes identical to the fault-free reference")
		return
	}
	target := *url
	if *inprocess > 0 {
		lb, err := fleet.NewLoopback(*inprocess, runtime.GOMAXPROCS(0)/(*inprocess)+1,
			fleet.Options{MaxQueue: *maxQueue, PingInterval: 500 * time.Millisecond}, nil)
		if err != nil {
			log.Fatalf("ooosimload: %v", err)
		}
		defer lb.Close()
		target = lb.URL
		log.Printf("ooosimload: booted %d-worker in-process fleet at %s", *inprocess, target)
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	client := &service.Client{BaseURL: target}
	if err := client.AwaitReady(ctx); err != nil {
		log.Fatalf("ooosimload: target never became ready: %v", err)
	}

	began := time.Now()
	deadline := began.Add(*duration)

	var (
		mu        sync.Mutex
		latencies []time.Duration
		batches   atomic.Uint64
		npoints   atomic.Uint64
		rejected  atomic.Uint64
		failures  atomic.Uint64
	)
	// Admission control working as designed is not an error: 429s are
	// counted and retried with the server's Retry-After honoured (capped
	// jittered backoff when the server gives no hint), for as long as
	// the load window is open.
	backoff := &faults.Retrier{
		MaxAttempts: 1 << 20,
		BaseDelay:   200 * time.Millisecond,
		MaxDelay:    2 * time.Second,
		Retryable: func(err error) bool {
			var se *service.StatusError
			return errors.As(err, &se) && se.Code == http.StatusTooManyRequests &&
				time.Now().Before(deadline)
		},
		OnRetry: func(int, error, time.Duration) { rejected.Add(1) },
	}
	var wg sync.WaitGroup
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(w)))
			for time.Now().Before(deadline) && ctx.Err() == nil {
				jobs := make([]service.Job, *batchSize)
				for i := range jobs {
					jobs[i] = points[rng.Intn(len(points))]
				}
				start := time.Now()
				err := backoff.Do(ctx, func() error {
					_, err := client.Run(ctx, jobs, nil)
					return err
				})
				if err != nil {
					if ctx.Err() != nil {
						return
					}
					var se *service.StatusError
					if errors.As(err, &se) && se.Code == http.StatusTooManyRequests {
						continue // load window closed mid-backoff; not a failure
					}
					failures.Add(1)
					log.Printf("ooosimload: batch failed: %v", err)
					continue
				}
				batches.Add(1)
				npoints.Add(uint64(len(jobs)))
				mu.Lock()
				latencies = append(latencies, time.Since(start))
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	// A signal can close the window early, so the rate is over the time
	// the load actually ran, not the nominal -duration.
	elapsed := time.Since(began).Round(time.Millisecond)
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	fmt.Printf("target:      %s\n", target)
	fmt.Printf("duration:    %s  concurrency: %d  batch-size: %d  distinct: %d\n",
		elapsed, *concurrency, *batchSize, *distinct)
	fmt.Printf("batches:     %d (%d failed, %d rejected with 429)\n",
		batches.Load(), failures.Load(), rejected.Load())
	fmt.Printf("points:      %d (%.1f points/s)\n",
		npoints.Load(), float64(npoints.Load())/elapsed.Seconds())
	if len(latencies) > 0 {
		fmt.Printf("latency:     p50=%s p90=%s p99=%s max=%s\n",
			percentile(latencies, 50), percentile(latencies, 90),
			percentile(latencies, 99), latencies[len(latencies)-1])
	}
	if failures.Load() > 0 {
		os.Exit(1)
	}
}

// percentile reads the p'th percentile from sorted latencies.
func percentile(sorted []time.Duration, p int) time.Duration {
	idx := len(sorted) * p / 100
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// runChaos is the self-healing acceptance soak: reference bytes from a
// fault-free local scheduler, then the same points through an
// in-process fleet with the seeded aggressive fault plan injected at
// every distributed seam and one worker killed after the first batch.
// Each batch is checked as the fleet serves it and again as a fresh
// coordinator routes it to the workers. Returns an error unless every
// point completes byte-identical to the reference.
func runChaos(seed int64, workers int, points []service.Job, batchSize, nbatches int) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()

	// Pass 1: fault-free reference bytes, no HTTP anywhere.
	log.Printf("chaos: pass 1 — fault-free reference over %d distinct points", len(points))
	refSched := service.NewScheduler(service.SchedulerOptions{Workers: runtime.GOMAXPROCS(0)})
	rb, err := refSched.Submit(points)
	if err != nil {
		return fmt.Errorf("reference submit: %w", err)
	}
	rst, err := rb.Wait(ctx)
	if err != nil {
		return fmt.Errorf("reference wait: %w", err)
	}
	if len(rst.Errors) > 0 {
		return fmt.Errorf("reference run failed: %v", rst.Errors)
	}
	refBytes := make([]string, len(points))
	for i := range points {
		refBytes[i] = string(rst.Results[i])
	}

	// Pass 2: the same points through the fray. Every worker gets a
	// chaotic disk cache (tiny memory tier, so reads actually hit the
	// faulty disk path), a recovery journal, and a chaos transport on its
	// donor fetches; the coordinator and its health probes run through
	// the chaos transport too, with fast breaker settings so the soak
	// exercises open/half-open/close cycles in seconds.
	inj := faults.NewInjector(faults.AggressivePlan(seed))
	var caches []*service.Cache
	chaosWorker := func(_ int, _ string, opt *service.SchedulerOptions) (func(), error) {
		dir, err := os.MkdirTemp("", "ooosim-chaos-")
		if err != nil {
			return nil, err
		}
		cleanup := func() { os.RemoveAll(dir) }
		if opt.Cache, err = service.NewCacheFS(2, dir, faults.ChaosFS{Base: faults.OSFS{}, Inject: inj, Site: "cachefs"}); err != nil {
			return cleanup, err
		}
		if opt.Journal, err = service.OpenJournal(filepath.Join(dir, "journal.ndjson")); err != nil {
			return cleanup, err
		}
		opt.Donors.UseTransport(&faults.RoundTripper{Inject: inj, Site: func(r *http.Request) string {
			return "donor:" + r.URL.Host
		}})
		caches = append(caches, opt.Cache)
		return func() { opt.Journal.Close(); cleanup() }, nil
	}
	opt := fleet.Options{
		PingInterval:    200 * time.Millisecond,
		PingTimeout:     time.Second,
		BreakerCooldown: 500 * time.Millisecond,
		RetryBudget:     10,
		NoNodesGrace:    5 * time.Second,
		HTTPClient:      &http.Client{Transport: &faults.RoundTripper{Inject: inj}},
		Log:             log.Printf,
	}
	lb, err := fleet.NewLoopback(workers, runtime.GOMAXPROCS(0)/workers+1, opt, chaosWorker)
	if err != nil {
		return err
	}
	defer lb.Close()
	log.Printf("chaos: pass 2 — %d-worker fleet at %s under plan seed %d", workers, lb.URL, seed)

	client := &service.Client{
		BaseURL:    lb.URL,
		HTTPClient: &http.Client{Transport: &faults.RoundTripper{Inject: inj}},
		// The stock policy treats 503 as a routing signal and surfaces it;
		// in this harness nothing drains, so a 503 is always injected
		// noise and the soak client retries it alongside 429 and
		// transport faults.
		Retry: &faults.Retrier{
			MaxAttempts: 12,
			BaseDelay:   50 * time.Millisecond,
			MaxDelay:    time.Second,
			Retryable: func(err error) bool {
				var se *service.StatusError
				if errors.As(err, &se) {
					return se.Code == http.StatusTooManyRequests || se.Code == http.StatusServiceUnavailable
				}
				return faults.Transient(err)
			},
		},
	}
	if err := client.AwaitReady(ctx); err != nil {
		return fmt.Errorf("chaos fleet never became ready: %w", err)
	}

	// fresh serves a new coordinator over the same workers, with the
	// same chaos transport and breaker settings. Its memory is empty, so
	// every point sent to it routes to a worker.
	fresh := func() (url string, stop func(), err error) {
		o := opt
		o.Workers = lb.Workers
		c, err := fleet.New(o)
		if err != nil {
			return "", nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.Close()
			return "", nil, err
		}
		srv := &http.Server{Handler: fleet.NewHandler(c)}
		served := make(chan struct{})
		go func() {
			defer close(served)
			srv.Serve(ln) // returns once stop closes srv
		}()
		return "http://" + ln.Addr().String(), func() { srv.Close(); <-served; c.Close() }, nil
	}

	rng := rand.New(rand.NewSource(seed))
	diverged := 0
	for bi := 0; bi < nbatches; bi++ {
		idxs := make([]int, batchSize)
		jobs := make([]service.Job, batchSize)
		for i := range jobs {
			idxs[i] = rng.Intn(len(points))
			jobs[i] = points[idxs[i]]
		}
		// Once as the fleet serves it, where repeats may come from the
		// coordinator's memory, then once through a fresh coordinator, so
		// the repeats reach the faulty workers as well.
		routed, stop, err := fresh()
		if err != nil {
			return err
		}
		for _, url := range []string{lb.URL, routed} {
			c := *client
			c.BaseURL = url
			raw := make([]string, len(jobs))
			// Run fails on any lost point, so a nil error means the batch
			// is complete: every point either simulated, hit a cache, or
			// was re-routed to a survivor.
			if _, err := c.Run(ctx, jobs, func(ev service.Event, _ *stats.Results) {
				if ev.Type == "result" && ev.Index >= 0 && ev.Index < len(raw) {
					raw[ev.Index] = string(ev.Results)
				}
			}); err != nil {
				stop()
				return fmt.Errorf("batch %d lost points at %s: %w", bi, url, err)
			}
			for i := range jobs {
				if raw[i] != refBytes[idxs[i]] {
					diverged++
					log.Printf("chaos: batch %d point %d (%s) at %s diverged from the reference", bi, i, jobs[i].Name, url)
				}
			}
		}
		stop()
		log.Printf("chaos: batch %d/%d complete (%d points, served and routed)", bi+1, nbatches, len(jobs))
		if bi == 0 {
			log.Printf("chaos: killing worker 0 (%s)", lb.Workers[0])
			lb.Kill(0)
		}
	}

	log.Printf("chaos: injector: %s", inj.StatsLine())
	for i, c := range caches {
		log.Printf("chaos: worker %d quarantined %d corrupt cache entr(ies)", i, c.Quarantined())
	}
	for i, s := range lb.Schedulers {
		a, b, sh, f := s.Donors().Stats()
		log.Printf("chaos: worker %d donors: adopted=%d built=%d shipped=%d fetchFails=%d", i, a, b, sh, f)
	}
	if diverged > 0 {
		return fmt.Errorf("%d point(s) diverged from the fault-free reference", diverged)
	}
	return nil
}
