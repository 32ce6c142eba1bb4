package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
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

// TestSchedulerSharesWarmDonors: a batch of distinct configurations
// over one workload and cache geometry warms a single donor; every
// simulated point receives a fork of it, and the batch status reports
// the sharing (one group, one build, the rest reuses).
func TestSchedulerSharesWarmDonors(t *testing.T) {
	s := NewScheduler(SchedulerOptions{Workers: 2})
	var donors atomic.Int64
	inner := s.run
	s.run = func(spec sim.RunSpec, donor *mem.Hierarchy) (stats.Results, error) {
		if donor != nil {
			donors.Add(1)
		}
		return inner(spec, donor)
	}
	// Three distinct fingerprints (different windows), one snapshot
	// group (same recipe + geometry).
	jobs := []Job{testJob("a", 32), testJob("b", 64), testJob("c", 128)}
	b, err := s.Submit(jobs)
	if err != nil {
		t.Fatal(err)
	}
	st, err := b.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Errors) != 0 {
		t.Fatalf("errors: %v", st.Errors)
	}
	if donors.Load() != 3 {
		t.Fatalf("%d of 3 points ran with a warm donor", donors.Load())
	}
	if st.SnapshotGroups != 1 {
		t.Errorf("snapshot groups = %d, want 1", st.SnapshotGroups)
	}
	if st.WarmBuilds != 1 || st.WarmReuses != 2 {
		t.Errorf("warm builds/reuses = %d/%d, want 1/2", st.WarmBuilds, st.WarmReuses)
	}
}

// TestSchedulerForkedMatchesColdResults: results served through the
// warm-donor path are bit-identical to plain sim.Run — the fingerprint
// cache would otherwise serve subtly different results depending on
// which submission populated it.
func TestSchedulerForkedMatchesColdResults(t *testing.T) {
	s := NewScheduler(SchedulerOptions{Workers: 2})
	job := testJob("x", 64)
	b, err := s.Submit([]Job{job})
	if err != nil {
		t.Fatal(err)
	}
	st, err := b.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := job.Trace.Materialise()
	if err != nil {
		t.Fatal(err)
	}
	cold, err := sim.Run(sim.RunSpec{Name: job.label(), Config: job.Config, Trace: tr, Insts: job.Insts})
	if err != nil {
		t.Fatal(err)
	}
	var got stats.Results
	if err := json.Unmarshal(st.Results[0], &got); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(cold) {
		t.Fatalf("service result diverged from cold run:\n%+v\nvs\n%+v", got, cold)
	}
}

// TestBatchDoneLogLine: the per-batch completion line carries the cache
// and snapshot-sharing stats, and fires exactly once.
func TestBatchDoneLogLine(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	s := NewScheduler(SchedulerOptions{Workers: 2, Log: func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}})
	b, err := s.Submit([]Job{testJob("a", 32), testJob("b", 64)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The done event publishes before the worker's LogDone call; give
	// the log a moment.
	var got []string
	for deadline := time.Now().Add(5 * time.Second); ; {
		mu.Lock()
		got = append([]string(nil), lines...)
		mu.Unlock()
		if len(got) > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(got) != 1 {
		t.Fatalf("logged %d lines, want 1: %v", len(got), got)
	}
	for _, want := range []string{"snapshot groups", "warm donors", "cache hits"} {
		if !strings.Contains(got[0], want) {
			t.Errorf("log line %q missing %q", got[0], want)
		}
	}
}

// TestBatchDoneLineText pins the completion line of a batch mixing a
// cache hit, simulated points, a failed point and a result that does
// not parse: the cycle totals cover every stored result that parses,
// cached or simulated. The expected text was produced by the
// implementation that parsed each result as it completed.
func TestBatchDoneLineText(t *testing.T) {
	raw := func(cycles int64, skipped uint64) json.RawMessage {
		b, err := json.Marshal(stats.Results{Cycles: cycles, SkippedCycles: skipped, Committed: 100})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	other := testJob("e", 64)
	other.Trace = trace.Recipe{Kernel: trace.KernelStencil, N: 6000}
	jobs := []Job{testJob("a", 32), testJob("b", 64), testJob("c", 128), testJob("d", 256), other}
	b := NewBatch("b7", jobs, []string{"f0", "f1", "f2", "f3", "f4"})
	b.Complete(0, raw(1000, 250), true, nil)
	b.warmShared(false)
	b.Complete(2, raw(3000, 1500), false, nil)
	b.warmShared(true)
	b.Complete(1, nil, false, errors.New("boom"))
	b.Complete(4, json.RawMessage(`{"Cycles":`), false, nil)
	if _, ok := b.TakeDoneLine(); ok {
		t.Fatal("done line before the last point")
	}
	b.Complete(3, raw(777, 0), true, nil)
	line, ok := b.TakeDoneLine()
	if !ok {
		t.Fatal("no done line after the last point")
	}
	const want = "batch b7 done: 5 points, 2 cache hits, 1 errors; 2 snapshot groups, " +
		"warm donors built=1 reused=1; clock-skip elided 1750/4777 cycles (36.6%)"
	if line != want {
		t.Errorf("done line:\n got %q\nwant %q", line, want)
	}
	if _, ok := b.TakeDoneLine(); ok {
		t.Error("done line taken twice")
	}
}

// TestProgramBatchColdThenWarm: a batch of program-recipe points runs
// cold (the server materialises each program by executing it), then an
// identical resubmission is served entirely from the content-addressed
// cache, byte-identical. This is the cross-client contract for program
// workloads: fingerprints cover the program recipe form, so a warm
// daemon answers program sweeps without re-executing anything.
func TestProgramBatchColdThenWarm(t *testing.T) {
	s, runs := countingScheduler(t, SchedulerOptions{Workers: 2}, 0)
	var jobs []Job
	for _, program := range []string{"isort", "chase"} {
		for _, iq := range []int{32, 64} {
			jobs = append(jobs, Job{
				Config: config.CheckpointDefault(iq, 512),
				Trace:  trace.Recipe{Kernel: trace.KernelProgram, Program: program, Input: 150, Seed: 42},
				Insts:  5000,
			})
		}
	}
	submitAndWait := func(jobs []Job) BatchStatus {
		t.Helper()
		b, err := s.Submit(jobs)
		if err != nil {
			t.Fatal(err)
		}
		st, err := b.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	cold := submitAndWait(jobs)
	if len(cold.Errors) != 0 {
		t.Fatalf("cold errors: %v", cold.Errors)
	}
	if cold.CacheHits != 0 {
		t.Fatalf("cold run claimed %d cache hits", cold.CacheHits)
	}
	coldRuns := runs.Load()
	if coldRuns != int64(len(jobs)) {
		t.Fatalf("cold run simulated %d of %d points", coldRuns, len(jobs))
	}

	warm := submitAndWait(jobs)
	if warm.CacheHits != len(jobs) {
		t.Fatalf("warm run hit %d of %d points", warm.CacheHits, len(jobs))
	}
	if runs.Load() != coldRuns {
		t.Fatalf("warm run simulated %d extra points", runs.Load()-coldRuns)
	}
	for i := range jobs {
		if string(warm.Results[i]) != string(cold.Results[i]) {
			t.Fatalf("point %d: warm result not byte-identical to cold:\n%s\nvs\n%s",
				i, warm.Results[i], cold.Results[i])
		}
		// Program results must surface the program-only counter blocks
		// through the service wire form.
		var r stats.Results
		if err := json.Unmarshal(cold.Results[i], &r); err != nil {
			t.Fatal(err)
		}
		if r.BTB == nil || r.BTB.Lookups == 0 || r.LSQ == nil || r.LSQ.Loads == 0 {
			t.Fatalf("point %d: program counters missing from wire results: %s", i, cold.Results[i])
		}
	}

	// Progress events label program points by program name.
	b, ok := s.Batch(cold.ID)
	if !ok {
		t.Fatal("cold batch not pollable")
	}
	first, ok, err := b.WaitEvent(context.Background(), 0)
	if err != nil || !ok {
		t.Fatalf("event: %v %v", ok, err)
	}
	if first.Name != "isort" && first.Name != "chase" {
		t.Errorf("program point labelled %q", first.Name)
	}
}

// TestSnapshotGroupKeySplits: geometry splits groups, timing does not.
func TestSnapshotGroupKeySplits(t *testing.T) {
	a := testJob("a", 32)
	b := testJob("b", 128)
	if a.group() != b.group() {
		t.Error("window-size differences must share a snapshot group")
	}
	c := a
	c.Config.L2.SizeBytes *= 2
	if a.group() == c.group() {
		t.Error("L2 geometry differences must split snapshot groups")
	}
	d := a
	d.Trace = trace.Recipe{Kernel: trace.KernelStencil, N: 6000}
	if a.group() == d.group() {
		t.Error("different workloads must split snapshot groups")
	}
	if countSnapshotGroups([]Job{a, b, c, d}) != 3 {
		t.Errorf("counted %d groups, want 3", countSnapshotGroups([]Job{a, b, c, d}))
	}
}
