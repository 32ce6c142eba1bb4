package service

import (
	"cmp"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"

	"repro/internal/keyed"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// SchedulerOptions tunes a Scheduler.
type SchedulerOptions struct {
	// Workers bounds the simulation pool shared across every in-flight
	// batch; <= 0 uses GOMAXPROCS. Cache lookups and event delivery
	// never occupy a worker slot — only actual simulation does.
	Workers int
	// Cache is the result store; nil builds a memory-only cache with
	// DefaultCacheEntries.
	Cache *Cache
	// MaxQueue is the admission bound: while misses are queued, a batch
	// whose misses would push the number of queued-but-unfinished
	// misses past it is rejected with ErrOverloaded (HTTP 429 +
	// Retry-After). An idle node admits any batch, even one larger than
	// the bound. Readiness is false while the queue is at or over the
	// bound. <= 0 admits everything.
	MaxQueue int
	// Donors, when non-nil, is the fleet's warm-donor shipping fabric:
	// snapshot-group donors are adopted from their home peer instead of
	// warmed locally, and this node serves its own donors to peers. The
	// scheduler wires its trace memo into the exchange. Without one the
	// node keeps the same donor memo privately.
	Donors *DonorExchange
	// Log, when non-nil, receives one line per completed batch with the
	// batch's cache and snapshot-sharing statistics (cmd/ooosimd wires
	// log.Printf here so operators can see the sharing engage).
	Log func(format string, args ...any)
	// Journal, when non-nil, is the batch recovery log: admitted batches
	// with misses and their completions are appended so a restarted
	// daemon can re-admit in-flight work (see Scheduler.Recover). Append
	// failures degrade recovery, never the running daemon.
	Journal *Journal
}

// Scheduler executes batches of Jobs. Submission splits each batch into
// cache hits (answered immediately, no simulation) and misses; misses
// run through the simulator on the shared bounded pool, deduplicated by
// fingerprint so concurrent identical submissions — within one batch or
// across batches — simulate once and share the result. Its Front admits
// batches against a bound on queued misses.
type Scheduler struct {
	*Front
	cache    *Cache
	sem      chan struct{}
	flight   keyed.Group[json.RawMessage]
	traces   keyed.Memo[string, *trace.Trace]
	donors   *DonorExchange // the node's donor memo
	exchange *DonorExchange // donors when configured, and so served to peers; else nil
	log      func(format string, args ...any)
	journal  *Journal
	metrics  Metrics

	// run executes one materialised point; donor is the point's shared
	// warm-state donor hierarchy (nil runs the cold path). Production
	// wires sim.RunForked/sim.Run; tests substitute counting wrappers.
	run func(sim.RunSpec, *mem.Hierarchy) (stats.Results, error)
}

// traceMemoLimit bounds the trace memo: distinct recipes are few in
// practice (a figure uses six), and 64 at figure sizes is a few hundred
// MB, the most a daemon should pin for workload reuse.
const traceMemoLimit = 64

// NewScheduler builds a scheduler.
func NewScheduler(opt SchedulerOptions) *Scheduler {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cache := opt.Cache
	if cache == nil {
		cache, _ = NewCache(0, "") // memory-only construction cannot fail
	}
	s := &Scheduler{
		Front:    NewFront("b", opt.MaxQueue),
		cache:    cache,
		sem:      make(chan struct{}, workers),
		traces:   keyed.Memo[string, *trace.Trace]{Limit: traceMemoLimit},
		donors:   cmp.Or(opt.Donors, NewDonorExchange("", nil)),
		exchange: opt.Donors,
		log:      opt.Log,
		journal:  opt.Journal,
		run: func(spec sim.RunSpec, donor *mem.Hierarchy) (stats.Results, error) {
			if donor == nil {
				return sim.Run(spec)
			}
			return sim.RunForked(spec, donor)
		},
	}
	// On-demand donor builds (a peer asking before any local point
	// touched the group) regenerate the trace through the same memo the
	// simulation path uses.
	s.donors.materialise = s.materialise
	return s
}

// materialise returns a recipe's trace, generating each recipe once
// while it stays in the memo.
func (s *Scheduler) materialise(r trace.Recipe) (*trace.Trace, error) {
	tr, _, err := s.traces.Get(r.String(), r.Materialise)
	return tr, err
}

// Donors returns the scheduler's donor exchange (nil outside a fleet).
func (s *Scheduler) Donors() *DonorExchange { return s.exchange }

// Submit validates and fingerprints every job, registers the batch, and
// returns it with cache hits already completed; misses execute
// asynchronously on the shared pool. An invalid job rejects the whole
// batch (nothing runs). Admission control also rejects atomically: a
// draining scheduler admits nothing (ErrDraining), and while misses are
// queued a batch whose misses would push the queue past MaxQueue is
// refused (ErrOverloaded) before anything is registered — cache hits
// alone never trip the bound, since they cost no simulation.
func (s *Scheduler) Submit(jobs []Job) (*Batch, error) {
	fps, err := s.Prepare(jobs)
	if err != nil {
		return nil, err
	}
	b, misses, err := s.AdmitHits(s.cache, jobs, fps)
	if err != nil {
		return nil, err
	}
	s.metrics.CachedPoints.Add(uint64(len(jobs) - len(misses)))

	// Launch the misses clustered by snapshot group — (trace recipe,
	// warm-relevant cache shape) — so jobs that fork the same warm donor
	// tend to run near each other (best-effort: the shared pool admits
	// them in arrival order).
	groupKeys := make([]string, len(b.jobs))
	for _, i := range misses {
		groupKeys[i] = snapshotGroupKey(b.jobs[i])
	}
	sort.SliceStable(misses, func(x, y int) bool {
		return groupKeys[misses[x]] < groupKeys[misses[y]]
	})
	// Journal the batch before any miss launches: once admitted, a crash
	// must be able to re-admit it. All-hit batches finished at admission
	// and need no recovery.
	if s.journal != nil && len(misses) > 0 {
		if err := s.journal.AppendBatch(b.id, b.jobs); err == nil {
			b.MarkJournaled()
		} else if s.log != nil {
			s.log("journal append failed for batch %s: %v", b.id, err)
		}
	}
	for _, i := range misses {
		go s.runJob(b, i)
	}
	b.LogDone(s.log)
	return b, nil
}

// Recover replays the journal, truncates it, and re-admits every batch
// that was in flight at the last shutdown. Re-admission goes through
// the normal Submit path, so points whose results reached the disk
// cache before the crash come back as hits and only the missing ones
// re-simulate — determinism makes the resumed batch byte-identical to
// what the original would have produced. Returns how many batches were
// re-admitted. A batch Submit refuses (validation drift, admission
// pressure) is re-journaled so the work survives to the next attempt.
func (s *Scheduler) Recover() (requeued int, err error) {
	if s.journal == nil {
		return 0, nil
	}
	pending, err := s.journal.Replay()
	if err != nil {
		return 0, err
	}
	if err := s.journal.Reset(); err != nil {
		return 0, fmt.Errorf("service: journal reset: %w", err)
	}
	for _, rb := range pending {
		if _, err := s.Submit(rb.Jobs); err != nil {
			s.journal.AppendBatch(rb.ID, rb.Jobs)
			if s.log != nil {
				s.log("journal recovery: batch %s not re-admitted: %v", rb.ID, err)
			}
			continue
		}
		requeued++
	}
	s.metrics.RecoveredBatches.Add(uint64(requeued))
	if s.log != nil && (requeued > 0 || len(pending) > 0) {
		s.log("journal recovery: re-admitted %d/%d batch(es)", requeued, len(pending))
	}
	return requeued, nil
}

// snapshotGroupKey renders a job's snapshot-sharing identity: jobs with
// equal keys fork the same warmed donor hierarchy.
func snapshotGroupKey(j Job) string {
	return fmt.Sprintf("%s\x00%+v", j.Trace.String(), mem.WarmKeyFor(j.Config))
}

// countSnapshotGroups counts the distinct snapshot groups in a batch.
// It keys on the same identity as snapshotGroupKey without formatting
// it, since every batch at every hop counts its groups, hits included.
func countSnapshotGroups(jobs []Job) int {
	type group struct {
		recipe string
		warm   mem.WarmKey
	}
	seen := make(map[group]struct{}, len(jobs))
	for _, j := range jobs {
		seen[group{j.Trace.String(), mem.WarmKeyFor(j.Config)}] = struct{}{}
	}
	return len(seen)
}

// runJob executes one cache miss: singleflight by fingerprint, then a
// worker slot, then trace materialisation and simulation, then cache
// fill. The result lands in the batch whatever the path. A point that
// avoided simulation after all — the in-flight cache re-check hit, or
// the flight deduplicated us against another submission's run — still
// reports as cached.
func (s *Scheduler) runJob(b *Batch, i int) {
	defer s.queued.Add(-1)
	job, fp := b.jobs[i], b.fps[i]
	lateHit := false
	raw, shared, err := s.flight.Do(fp, func() (json.RawMessage, error) {
		// Re-check under the flight: another submission may have
		// finished (and cached) this point between our Get and here.
		if raw, ok := s.cache.Get(fp); ok {
			lateHit = true
			return raw, nil
		}
		s.sem <- struct{}{}
		s.metrics.InFlight.Add(1)
		defer func() { s.metrics.InFlight.Add(-1); <-s.sem }()
		var tr *trace.Trace
		var donor *mem.Hierarchy
		if job.Sample.Enabled() {
			// Sampled jobs stream: the recipe is handed through as a
			// recipe-only trace handle (never materialised, so the
			// streamed budget cap applies instead of MaxRecipeInsts) and
			// no warm donor is built — the sampled run warms its own
			// persistent substrate by fast-forwarding the stream.
			var err error
			if tr, err = trace.StreamOnly(job.Trace); err != nil {
				return nil, err
			}
		} else {
			var err error
			if tr, err = s.materialise(job.Trace); err != nil {
				return nil, err
			}
			// Fork the job's snapshot group's warmed donor instead of
			// replaying the warm-up per point; a donor failure degrades to
			// the cold path (never fails the job).
			var reused bool
			donor, reused = s.donors.Acquire(job.Trace, mem.WarmKeyFor(job.Config), tr)
			b.warmShared(donor != nil, reused)
			if donor != nil && reused {
				s.metrics.WarmReuses.Add(1)
			}
		}
		s.metrics.Simulations.Add(1)
		res, err := s.run(sim.RunSpec{
			Name:             job.label(),
			Config:           job.Config,
			Trace:            tr,
			Insts:            job.Insts,
			CollectOccupancy: job.CollectOccupancy,
			Sample:           job.Sample,
		}, donor)
		if err != nil {
			return nil, err
		}
		s.metrics.Cycles.Add(uint64(res.Cycles))
		s.metrics.SkippedCycles.Add(uint64(res.SkippedCycles))
		raw, err := json.Marshal(res)
		if err != nil {
			return nil, err
		}
		// A cache-fill failure (disk full, permissions) must not fail
		// the run: the result is in hand.
		_ = s.cache.Put(fp, raw)
		return raw, nil
	})
	cached := err == nil && (shared || lateHit)
	if cached {
		s.metrics.CachedPoints.Add(1)
	}
	if err != nil {
		s.metrics.PointErrors.Add(1)
	}
	b.Complete(i, raw, cached, err)
	if s.journal != nil && b.TakeJournalDone() {
		s.journal.AppendBatchDone(b.id)
	}
	b.LogDone(s.log)
}
