package service

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// testJob is a small, real simulation point (a few ms of work).
func testJob(name string, iq int) Job {
	return Job{
		Name:   name,
		Config: config.CheckpointDefault(iq, 512),
		Trace:  trace.Recipe{Kernel: trace.KernelStream, N: 6000},
		Insts:  1500,
	}
}

// countingScheduler wires a scheduler whose simulation calls are
// counted (and optionally slowed, to widen concurrency windows).
func countingScheduler(t *testing.T, opt SchedulerOptions, delay time.Duration) (*Scheduler, *atomic.Int64) {
	t.Helper()
	s := NewScheduler(opt)
	var runs atomic.Int64
	inner := s.run
	s.run = func(spec sim.RunSpec, donor *mem.Hierarchy) (stats.Results, error) {
		runs.Add(1)
		if delay > 0 {
			time.Sleep(delay)
		}
		return inner(spec, donor)
	}
	return s, &runs
}

// TestSingleflightDedupe is the satellite's concurrency contract: 32
// concurrent identical submissions simulate exactly once and all
// receive byte-identical results. Run under -race in CI.
func TestSingleflightDedupe(t *testing.T) {
	s, runs := countingScheduler(t, SchedulerOptions{Workers: 4}, 10*time.Millisecond)
	job := testJob("dedupe", 64)

	const n = 32
	var wg sync.WaitGroup
	statuses := make([]BatchStatus, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, err := s.Submit([]Job{job})
			if err != nil {
				errs[i] = err
				return
			}
			st, err := b.Wait(context.Background())
			statuses[i], errs[i] = st, err
		}(i)
	}
	wg.Wait()

	if got := runs.Load(); got != 1 {
		t.Errorf("32 identical submissions ran the simulator %d times, want 1", got)
	}
	var ref string
	hits := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("submission %d: %v", i, errs[i])
		}
		st := statuses[i]
		if st.State != StateDone || st.Done != 1 || len(st.Errors) != 0 {
			t.Fatalf("submission %d: unexpected status %+v", i, st)
		}
		hits += st.CacheHits
		if st.Results[0] == nil {
			t.Fatalf("submission %d: no result", i)
		}
		if ref == "" {
			ref = string(st.Results[0])
		} else if string(st.Results[0]) != ref {
			t.Errorf("submission %d: result bytes differ from the first submission", i)
		}
	}
	// Exactly one submission simulated; every other one must report
	// its point as needing no simulation (cache or dedupe hit).
	if hits != n-1 {
		t.Errorf("%d of %d submissions reported cache hits, want %d", hits, n, n-1)
	}
}

// TestSchedulerHitMissSplit: a resubmitted batch is all cache hits and
// never touches the simulator.
func TestSchedulerHitMissSplit(t *testing.T) {
	s, runs := countingScheduler(t, SchedulerOptions{Workers: 2}, 0)
	jobs := []Job{testJob("a", 32), testJob("b", 64), testJob("c", 128)}

	b, err := s.Submit(jobs)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := b.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHits != 0 || runs.Load() != 3 {
		t.Fatalf("cold run: %d hits, %d simulator calls; want 0 and 3", cold.CacheHits, runs.Load())
	}

	b2, err := s.Submit(jobs)
	if err != nil {
		t.Fatal(err)
	}
	// All hits complete synchronously inside Submit.
	warm := b2.Status()
	if warm.State != StateDone || warm.CacheHits != 3 {
		t.Errorf("warm run: state %s with %d hits, want done with 3", warm.State, warm.CacheHits)
	}
	if got := runs.Load(); got != 3 {
		t.Errorf("warm run performed %d extra simulator calls", got-3)
	}
	for i := range jobs {
		if string(warm.Results[i]) != string(cold.Results[i]) {
			t.Errorf("point %d: warm result bytes differ from cold", i)
		}
	}
}

// TestSchedulerRejectsInvalidBatch: one bad job rejects the whole
// batch before anything runs.
func TestSchedulerRejectsInvalidBatch(t *testing.T) {
	s, runs := countingScheduler(t, SchedulerOptions{}, 0)
	bad := testJob("bad", 64)
	bad.Trace.Kernel = "quicksort"
	if _, err := s.Submit([]Job{testJob("good", 64), bad}); err == nil {
		t.Fatal("invalid job accepted")
	}
	if _, err := s.Submit(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	if runs.Load() != 0 {
		t.Errorf("rejected batch still simulated %d points", runs.Load())
	}
}

// TestSchedulerPointFailure: a point that fails at run time produces an
// error event and an errored status, while the rest of the batch
// completes normally.
func TestSchedulerPointFailure(t *testing.T) {
	s := NewScheduler(SchedulerOptions{Workers: 2})
	s.run = func(spec sim.RunSpec, _ *mem.Hierarchy) (stats.Results, error) {
		if spec.Name == "boom" {
			return stats.Results{}, context.DeadlineExceeded
		}
		return sim.Run(spec)
	}
	b, err := s.Submit([]Job{testJob("ok", 64), testJob("boom", 128)})
	if err != nil {
		t.Fatal(err)
	}
	st, err := b.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Errors) != 1 {
		t.Fatalf("status errors %v, want exactly one", st.Errors)
	}
	if st.Results[0] == nil || st.Results[1] != nil {
		t.Errorf("expected point 0 to succeed and point 1 to fail: %v", st.Results)
	}
}

// TestSchedulerSurvivesPanickingPoint: a panic anywhere in a point's
// execution path (trace materialisation is the realistic one — it
// allocates client-controlled amounts outside sim.Run's recover) must
// complete the point with an error, not kill the daemon or strand
// flight followers.
func TestSchedulerSurvivesPanickingPoint(t *testing.T) {
	s := NewScheduler(SchedulerOptions{Workers: 2})
	s.run = func(sim.RunSpec, *mem.Hierarchy) (stats.Results, error) {
		panic("allocator blew up")
	}
	// Two concurrent identical submissions: the leader panics inside
	// the flight; the follower must still be released with the error.
	b1, err := s.Submit([]Job{testJob("p", 64)})
	if err != nil {
		t.Fatal(err)
	}
	b2, err := s.Submit([]Job{testJob("p", 64)})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []*Batch{b1, b2} {
		st, err := b.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone || len(st.Errors) != 1 {
			t.Fatalf("batch %s: status %+v, want done with one error", b.ID(), st)
		}
		if !strings.Contains(st.Errors[0], "panic") {
			t.Errorf("batch %s: error %q does not mention the panic", b.ID(), st.Errors[0])
		}
	}
}

// TestBatchEventStreamContract: events replay completely for late
// subscribers, completion counts are monotone, and the stream ends
// with a done event.
func TestBatchEventStreamContract(t *testing.T) {
	s := NewScheduler(SchedulerOptions{Workers: 2})
	jobs := []Job{testJob("a", 32), testJob("b", 64), testJob("c", 128)}
	b, err := s.Submit(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Subscribe after completion: full history must replay.
	var evs []Event
	for i := 0; ; i++ {
		ev, ok, err := b.WaitEvent(context.Background(), i)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		evs = append(evs, ev)
	}
	if len(evs) != len(jobs)+1 {
		t.Fatalf("replayed %d events, want %d", len(evs), len(jobs)+1)
	}
	seen := map[int]bool{}
	for i, ev := range evs[:len(jobs)] {
		if ev.Type != "result" || ev.Done != i+1 || ev.Total != len(jobs) {
			t.Errorf("event %d malformed: %+v", i, ev)
		}
		seen[ev.Index] = true
	}
	if len(seen) != len(jobs) {
		t.Errorf("events covered indices %v, want all of 0..%d", seen, len(jobs)-1)
	}
	last := evs[len(evs)-1]
	if last.Type != "done" || last.Done != len(jobs) {
		t.Errorf("final event %+v, want done", last)
	}

	// A cancelled wait on a still-running batch returns the context
	// error (a distinct config guarantees a cache miss, so the batch
	// really is running).
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b2, err := s.Submit([]Job{testJob("z", 256)})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := b2.WaitEvent(ctx, 99); err == nil {
		t.Error("cancelled WaitEvent returned no error")
	}
	if _, err := b2.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerBatchRetention: finished batches beyond the bound are
// forgotten oldest-first; running batches are never evicted.
func TestSchedulerBatchRetention(t *testing.T) {
	s := NewScheduler(SchedulerOptions{Workers: 1})
	s.maxBatches = 2
	var ids []string
	for i := 0; i < 3; i++ {
		b, err := s.Submit([]Job{testJob("r", 32)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, b.ID())
	}
	if _, ok := s.Batch(ids[0]); ok {
		t.Error("oldest finished batch still addressable past the retention bound")
	}
	for _, id := range ids[1:] {
		if _, ok := s.Batch(id); !ok {
			t.Errorf("batch %s evicted too early", id)
		}
	}
}
