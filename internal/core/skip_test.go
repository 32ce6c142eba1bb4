package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/trace"
)

// runAB runs one (config, trace, options) point twice — cycle-by-cycle
// and with the event-driven clock skip — and returns both results with
// the skip's own diagnostic counters separated out, so callers can
// require bit-equality of the simulated statistics AND that the skip
// actually engaged.
func runAB(t *testing.T, cfg config.Config, tr *trace.Trace, opt RunOptions, except []int64) (tick, skip stats.Results, skipped uint64) {
	t.Helper()
	run := func(disable bool) stats.Results {
		cpu, err := New(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		for _, pos := range except {
			cpu.InjectExceptionAt(pos)
		}
		o := opt
		o.DisableSkip = disable
		return cpu.Run(o)
	}
	tick = run(true)
	skip = run(false)
	if tick.SkippedCycles != 0 || tick.SkipEvents != 0 || tick.LongestSkip != 0 {
		t.Fatalf("cycle-by-cycle run reported skip activity: %+v", tick)
	}
	skipped = skip.SkippedCycles
	skip.SkippedCycles, skip.SkipEvents, skip.LongestSkip = 0, 0, 0
	return tick, skip, skipped
}

// TestSkipEquivalenceAcrossPolicies is the clock skip's central
// contract: for every commit-policy family, and for the checkpointed
// machine with virtual registers, under the nastiest control flow we
// model (branch rollbacks, pseudo-ROB recoveries, the two-pass
// exception protocol) and a memory latency long enough to create real
// quiescent stretches, the skipping run's statistics are bit-identical
// to the cycle-by-cycle run's — and the skip genuinely engaged, so the
// equality is not vacuous. Run under -race in CI.
func TestSkipEquivalenceAcrossPolicies(t *testing.T) {
	tr := rollbackHeavyTrace(90000)
	for _, tc := range []struct {
		name       string
		cfg        config.Config
		exceptions bool // checkpoint family only
	}{
		{"rob", config.BaselineSized(128), false},
		{"checkpoint", config.CheckpointDefault(32, 1024), true},
		{"adaptive", config.AdaptiveDefault(32, 1024), true},
		{"oracle", config.OracleDefault(), false},
		{"checkpoint-vreg", vregConfig(config.CheckpointDefault(32, 1024), 256, 96), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.MemoryLatency = 2000 // long stalls → long quiescent stretches
			var except []int64
			if tc.exceptions {
				except = []int64{4000, 21000}
			}
			tick, skip, skipped := runAB(t, cfg, tr, RunOptions{MaxInsts: 50000, CollectOccupancy: true}, except)
			if !tick.Equal(skip) {
				t.Fatalf("skip run diverged from cycle-by-cycle run:\ntick: %+v\nskip: %+v", tick, skip)
			}
			if skipped == 0 {
				t.Fatal("clock skip never engaged; the equivalence check is vacuous")
			}
			t.Logf("%s: %d/%d cycles elided", tc.name, skipped, tick.Cycles)
		})
	}
}

// TestSkipOccupancyHistogramIdentical pins the weighted-sample path
// (stats.Occupancy.SampleN): the full occupancy distribution — not just
// its mean — must match the cycle-by-cycle run's sample for sample.
func TestSkipOccupancyHistogramIdentical(t *testing.T) {
	tr := trace.FPMix(60000, 7)
	cfg := config.CheckpointDefault(64, 2048)
	cfg.MemoryLatency = 1500
	tick, skip, skipped := runAB(t, cfg, tr, RunOptions{MaxInsts: 40000, CollectOccupancy: true}, nil)
	if skipped == 0 {
		t.Fatal("clock skip never engaged")
	}
	if tick.Occ == nil || skip.Occ == nil {
		t.Fatal("occupancy collection did not run")
	}
	if tick.Occ.Samples() != skip.Occ.Samples() {
		t.Fatalf("sample counts diverged: tick %d vs skip %d", tick.Occ.Samples(), skip.Occ.Samples())
	}
	if tick.Occ.Samples() != uint64(tick.Cycles) {
		t.Fatalf("occupancy sampled %d cycles of %d: elided cycles lost their samples",
			tick.Occ.Samples(), tick.Cycles)
	}
	for _, p := range []float64{0.10, 0.50, 0.90, 0.99} {
		if a, b := tick.Occ.Percentile(p), skip.Occ.Percentile(p); a != b {
			t.Fatalf("occupancy p%.0f diverged: tick %d vs skip %d", 100*p, a, b)
		}
	}
}

// TestSkipMaxCyclesExact pins cycle accounting at the MaxCycles
// boundary: a run cut off mid-quiescence must report exactly MaxCycles
// cycles (never overshoot past the bound), sample the occupancy
// histogram exactly once per cycle, and stay bit-identical to the
// cycle-by-cycle run at every cutoff — including cutoffs that land
// inside a would-be jump.
func TestSkipMaxCyclesExact(t *testing.T) {
	tr := trace.FPMix(60000, 7)
	cfg := config.CheckpointDefault(64, 2048)
	cfg.MemoryLatency = 1500
	for _, maxCycles := range []int64{1, 500, 1501, 2000, 2777, 5000} {
		opt := RunOptions{MaxInsts: 40000, MaxCycles: maxCycles, CollectOccupancy: true}
		tick, skip, _ := runAB(t, cfg, tr, opt, nil)
		if !tick.Equal(skip) {
			t.Fatalf("MaxCycles=%d: skip run diverged:\ntick: %+v\nskip: %+v", maxCycles, tick, skip)
		}
		if skip.Cycles > maxCycles {
			t.Fatalf("MaxCycles=%d: skip run overshot to %d cycles", maxCycles, skip.Cycles)
		}
		if skip.Committed < 40000 && skip.Cycles != maxCycles {
			t.Fatalf("MaxCycles=%d: run stopped early at cycle %d with %d committed",
				maxCycles, skip.Cycles, skip.Committed)
		}
		if got := skip.Occ.Samples(); got != uint64(skip.Cycles) {
			t.Fatalf("MaxCycles=%d: %d occupancy samples for %d cycles", maxCycles, got, skip.Cycles)
		}
	}
}

// TestSkipWatchdogStillFires proves a wedged core still panics — on the
// same cycle, with the same message — when the clock skip is eliding the
// stalled cycles: the watchdog bound caps every jump, so the panic
// cycle always executes for real.
func TestSkipWatchdogStillFires(t *testing.T) {
	tr := trace.Stream(20000)
	cfg := config.BaselineSized(64)
	// A single main-memory load outlives the whole watchdog window, so
	// the ROB head pins commit long enough to trip it.
	cfg.MemoryLatency = 30000
	capture := func(disable bool) (msg string) {
		cpu, err := New(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		cpu.Run(RunOptions{MaxInsts: 15000, WatchdogCycles: 5000, DisableSkip: disable})
		return ""
	}
	tick, skip := capture(true), capture(false)
	if tick == "" || skip == "" {
		t.Fatalf("watchdog did not fire: tick=%q skip=%q", tick, skip)
	}
	if tick != skip {
		t.Fatalf("watchdog panics diverged:\ntick: %s\nskip: %s", tick, skip)
	}
}

// TestWatchdogCountsFromCycleZero: a run that stalls before its first
// commit trips the watchdog WatchdogCycles after cycle 0, not after its
// first dispatch, identically with the skip on and off. The donor is
// never warmed, so the first fetch waits on main memory.
func TestWatchdogCountsFromCycleZero(t *testing.T) {
	cfg := config.CheckpointDefault(128, 2048)
	tr := trace.FPMix(20000, 1)
	capture := func(disable bool) (msg string) {
		donor, err := mem.WarmKeyFor(cfg).Donor()
		if err != nil {
			t.Fatal(err)
		}
		cpu, err := NewForked(cfg, tr, donor, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		cpu.Run(RunOptions{WatchdogCycles: 500, DisableSkip: disable})
		return ""
	}
	tick, skip := capture(true), capture(false)
	const want = "core: no commit progress for 500 cycles at cycle 501 "
	if !strings.HasPrefix(tick, want) {
		t.Fatalf("watchdog panic = %q, want prefix %q", tick, want)
	}
	if tick != skip {
		t.Fatalf("watchdog panics diverged:\ntick: %s\nskip: %s", tick, skip)
	}
}

// TestEventWheelNextDue pins the skip's event-horizon query against the
// wheel's pop order: nextDue must find the earliest scheduled event,
// never move anything, and clamp to the caller's limit. A push past the
// ring's horizon must panic rather than alias a nearer slot.
func TestEventWheelNextDue(t *testing.T) {
	w := newEventWheel(64)
	mk := func(seq uint64, done int64) *DynInst {
		d := &DynInst{Seq: seq, DoneCycle: done}
		d.wheelSlot = eventNone
		return d
	}
	if got := w.nextDue(100); got != 100 {
		t.Fatalf("empty wheel: nextDue(100) = %d, want 100", got)
	}
	w.push(mk(1, 10))
	w.push(mk(2, 40))
	if got := w.nextDue(100); got != 10 {
		t.Fatalf("nextDue(100) = %d, want 10", got)
	}
	if got := w.nextDue(5); got != 5 {
		t.Fatalf("nextDue(5) = %d, want clamp to 5", got)
	}
	if due := w.takeDue(10); len(due) != 1 || due[0].Seq != 1 {
		t.Fatalf("takeDue(10) = %v", due)
	}
	if got := w.nextDue(1000); got != 40 {
		t.Fatalf("nextDue(1000) = %d, want 40", got)
	}
	if w.Len() != 1 {
		t.Fatalf("nextDue moved events: len %d, want 1", w.Len())
	}
	w.remove(mk(3, 40)) // not scheduled: no-op
	w.remove(w.buckets[40&w.mask][0])
	if got := w.nextDue(1000); got != 1000 || w.Len() != 0 {
		t.Fatalf("after remove: nextDue(1000) = %d, len %d; want 1000, 0", got, w.Len())
	}
	// takeDue(10) moved the base to 11, so the ring spans [11, 75).
	w.push(mk(4, 74))
	defer func() {
		if recover() == nil {
			t.Fatal("push past the horizon did not panic")
		}
	}()
	w.push(mk(5, 75))
}

// TestSlowUnitFitsTheWheel: the wheel's horizon covers the slowest
// functional unit, not only the integer divider. At 100-cycle memory a
// horizon sized by the divider is 256 slots, and 17,841 completions of
// this 400-cycle-FP run land beyond it. The run must stay on the wheel,
// skip-equivalent, and reach the cycle and commit counts that a wheel
// with a spill heap for far events produced.
func TestSlowUnitFitsTheWheel(t *testing.T) {
	cfg := config.CheckpointDefault(64, 512)
	cfg.FPAlu.Latency = 400
	cfg.MemoryLatency = 100
	tick, skip, _ := runAB(t, cfg, trace.FPMix(40000, 1), RunOptions{MaxInsts: 30000}, nil)
	if !tick.Equal(skip) {
		t.Fatalf("skip diverged:\ntick: %+v\nskip: %+v", tick, skip)
	}
	if tick.Cycles != 343022 || tick.Committed != 33095 {
		t.Fatalf("cycles %d, committed %d; want 343022, 33095", tick.Cycles, tick.Committed)
	}
}
