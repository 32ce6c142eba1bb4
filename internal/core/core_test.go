package core

import (
	"testing"

	"repro/internal/config"
	"repro/internal/stats"
	"repro/internal/trace"
)

func mustRun(t *testing.T, cfg config.Config, tr *trace.Trace, n uint64) stats.Results {
	t.Helper()
	cpu, err := New(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	res := cpu.Run(RunOptions{MaxInsts: n})
	if res.Committed < n {
		t.Fatalf("committed %d < %d (%s)", res.Committed, n, cpu.debugState())
	}
	return res
}

func TestDeterminism(t *testing.T) {
	tr := trace.FPMix(40000, 5)
	for _, cfg := range []config.Config{
		config.BaselineSized(256),
		config.CheckpointDefault(64, 1024),
	} {
		cfg.MemoryLatency = 200
		a := mustRun(t, cfg, tr, 30000)
		b := mustRun(t, cfg, tr, 30000)
		if a.Cycles != b.Cycles || a.Committed != b.Committed || a.Fetched != b.Fetched {
			t.Errorf("%v: non-deterministic: %+v vs %+v", cfg.Commit, a, b)
		}
	}
}

func TestWindowScalingMonotonic(t *testing.T) {
	// Figure 1's premise: on a memory-bound workload, larger windows
	// never hurt. (Strided: still missing L2 at test scale.)
	tr := trace.StridedStream(90000, 8)
	prev := -1.0
	for _, w := range []int{64, 128, 512, 2048} {
		cfg := config.BaselineSized(w)
		cfg.MemoryLatency = 500
		ipc := mustRun(t, cfg, tr, 60000).IPC()
		if ipc < prev*0.98 { // small tolerance for noise
			t.Fatalf("window %d: IPC %.3f regressed from %.3f", w, ipc, prev)
		}
		prev = ipc
	}
}

func TestCheckpointCountMonotonic(t *testing.T) {
	// Figure 13's premise: more checkpoints never hurt.
	tr := trace.FPMix(90000, 9)
	prev := -1.0
	for _, k := range []int{2, 4, 8, 16} {
		cfg := config.CheckpointDefault(128, 2048)
		cfg.Checkpoints = k
		ipc := mustRun(t, cfg, tr, 60000).IPC()
		if ipc < prev*0.98 {
			t.Fatalf("checkpoints %d: IPC %.3f regressed from %.3f", k, ipc, prev)
		}
		prev = ipc
	}
}

func TestSLIQHelpsSmallQueues(t *testing.T) {
	// Section 3's premise: with a tiny issue queue, moving long-latency
	// dependants to the slow lane is a large win.
	tr := trace.FPMix(90000, 3)
	without := config.CheckpointDefault(32, 0) // no SLIQ
	with := config.CheckpointDefault(32, 1024)
	ipcWithout := mustRun(t, without, tr, 50000).IPC()
	ipcWith := mustRun(t, with, tr, 50000).IPC()
	if ipcWith < 1.5*ipcWithout {
		t.Fatalf("SLIQ should be a big win at IQ=32: %.3f vs %.3f", ipcWith, ipcWithout)
	}
}

func TestPerfectPredictionNoRecoveries(t *testing.T) {
	tr := trace.FPMix(60000, 4)
	cfg := config.CheckpointDefault(64, 1024)
	cfg.PerfectBranchPrediction = true
	res := mustRun(t, cfg, tr, 40000)
	if res.Rollbacks != 0 || res.PseudoROBRecoveries != 0 {
		t.Fatalf("perfect prediction must avoid all recoveries: %+v", res)
	}
	if res.Branch.Mispredicts != 0 {
		t.Fatal("perfect predictor mispredicted")
	}
}

// rollbackHeavyTrace builds a mix dominated by branches whose direction
// hangs off loads while streams thrash the caches, so mispredicted
// branches regularly resolve long after leaving the pseudo-ROB.
func rollbackHeavyTrace(n int) *trace.Trace {
	return trace.Mix(n, 42, trace.MixWeights{Strided: 4, Stream: 1, CondSlow: 40})
}

// vregConfig turns cfg into a virtual-register machine with the given
// tag and physical register counts.
func vregConfig(cfg config.Config, tags, phys int) config.Config {
	cfg.VirtualRegisters = true
	cfg.VirtualTags = tags
	cfg.PhysRegs = phys
	return cfg
}

func TestMispredictsCauseRecoveries(t *testing.T) {
	tr := rollbackHeavyTrace(120000)
	cfg := config.CheckpointDefault(32, 1024)
	res := mustRun(t, cfg, tr, 80000)
	if res.Branch.Mispredicts == 0 {
		t.Fatal("the mix should mispredict sometimes")
	}
	if res.PseudoROBRecoveries+res.Rollbacks == 0 {
		t.Fatal("mispredicts must trigger one of the recovery paths")
	}
	// With a 32-entry pseudo-ROB and load-dependent branches, some
	// mispredicts resolve after leaving the pseudo-ROB: rollbacks.
	if res.Rollbacks == 0 {
		t.Fatal("expected checkpoint rollbacks with a small pseudo-ROB")
	}
	if res.Replayed == 0 {
		t.Fatal("rollbacks re-execute correct-path instructions")
	}
}

func TestPseudoROBRecoveryPath(t *testing.T) {
	// Branches resolving inside the pseudo-ROB recover without touching
	// a checkpoint; the mix's fast index-chain branches exercise it.
	tr := trace.FPMix(120000, 42)
	res := mustRun(t, config.CheckpointDefault(128, 1024), tr, 80000)
	if res.PseudoROBRecoveries == 0 {
		t.Fatal("fast-resolving mispredicts should recover from the pseudo-ROB")
	}
}

func TestExceptionProtocol(t *testing.T) {
	tr := trace.FPMix(60000, 6)
	cfg := config.CheckpointDefault(64, 1024)
	cpu, err := New(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	positions := []int64{5000, 20000}
	for _, p := range positions {
		cpu.InjectExceptionAt(p)
	}
	res := cpu.Run(RunOptions{MaxInsts: 40000})
	if got := cpu.Exceptions(); got != uint64(len(positions)) {
		t.Fatalf("delivered %d exceptions, want %d", got, len(positions))
	}
	if res.Rollbacks < uint64(len(positions)) {
		t.Fatalf("each exception needs a rollback, got %d", res.Rollbacks)
	}
	if res.Committed < 40000 {
		t.Fatal("execution must complete after exceptions")
	}
}

func TestOccupancyCollection(t *testing.T) {
	tr := trace.FPMix(60000, 2)
	cfg := config.BaselineSized(512)
	cfg.MemoryLatency = 500
	cpu, err := New(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	res := cpu.Run(RunOptions{MaxInsts: 40000, CollectOccupancy: true})
	if res.Occ == nil {
		t.Fatal("occupancy not collected")
	}
	if res.Occ.Max() > 512 {
		t.Fatalf("occupancy %d exceeds the window bound", res.Occ.Max())
	}
	if res.Occ.Samples() != uint64(res.Cycles) {
		t.Fatal("one sample per cycle expected")
	}
	// The distribution's mean must agree with the incremental mean.
	if diff := res.Occ.Mean() - res.MeanInflight; diff > 1 || diff < -1 {
		t.Fatalf("mean mismatch: %.1f vs %.1f", res.Occ.Mean(), res.MeanInflight)
	}
}

func TestBaselineWindowBound(t *testing.T) {
	tr := trace.StridedStream(60000, 8)
	cfg := config.BaselineSized(128)
	cfg.MemoryLatency = 500
	res := mustRun(t, cfg, tr, 40000)
	if res.MaxInflight > 128 {
		t.Fatalf("in-flight %d exceeds the ROB size", res.MaxInflight)
	}
}

func TestCheckpointModeExceedsROBBound(t *testing.T) {
	// The whole point: thousands in flight with an 8-entry checkpoint
	// table and a 128-entry pseudo-ROB. The strided stream keeps
	// missing L2 even at test scale (its touched footprint exceeds L2).
	tr := trace.StridedStream(120000, 8)
	cfg := config.CheckpointDefault(128, 2048)
	res := mustRun(t, cfg, tr, 80000)
	if res.MeanInflight < 1000 {
		t.Fatalf("checkpointed commit should sustain a kilo-instruction window, got %.0f",
			res.MeanInflight)
	}
	if res.CheckpointsTaken == 0 || res.CheckpointsCommitted == 0 {
		t.Fatal("checkpoint machinery unused")
	}
}

func TestRetireBreakdownConsistent(t *testing.T) {
	tr := trace.FPMix(90000, 8)
	cfg := config.CheckpointDefault(64, 1024)
	cpu, err := New(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	res := cpu.Run(RunOptions{MaxInsts: 60000})
	total := res.Retire.Total()
	if total == 0 {
		t.Fatal("no extractions classified")
	}
	// Every class should occur on the mix.
	for c := stats.RetireClass(0); c < stats.NumRetireClasses; c++ {
		if res.Retire[c] == 0 {
			t.Errorf("class %v never observed", c)
		}
	}
	if res.SLIQMoved != res.Retire[stats.RetireMoved] {
		t.Errorf("moved count mismatch: SLIQ %d vs breakdown %d",
			res.SLIQMoved, res.Retire[stats.RetireMoved])
	}
}

func TestVirtualRegistersPressure(t *testing.T) {
	tr := trace.FPMix(90000, 11)
	run := func(vtags, phys int) float64 {
		cfg := config.CheckpointDefault(128, 2048)
		cfg.VirtualRegisters = true
		cfg.VirtualTags = vtags
		cfg.PhysRegs = phys
		return mustRun(t, cfg, tr, 50000).IPC()
	}
	small := run(256, 256)
	large := run(2048, 512)
	if large <= small {
		t.Fatalf("more tags and registers must help: %.3f vs %.3f", large, small)
	}
}

func TestMemoryLatencySensitivity(t *testing.T) {
	// Sanity: a small window suffers roughly in proportion to latency.
	tr := trace.StridedStream(90000, 8)
	cfg := config.BaselineSized(128)
	cfg.MemoryLatency = 100
	fast := mustRun(t, cfg, tr, 40000).IPC()
	cfg.MemoryLatency = 1000
	slow := mustRun(t, cfg, tr, 40000).IPC()
	if fast < 3*slow {
		t.Fatalf("10x latency should crush a 128-entry window: %.3f vs %.3f", fast, slow)
	}
}

func TestPerfectL2RemovesLatencySensitivity(t *testing.T) {
	tr := trace.Stream(90000)
	mk := func(lat int) float64 {
		cfg := config.BaselineSized(128)
		cfg.PerfectL2 = true
		cfg.MemoryLatency = lat
		return mustRun(t, cfg, tr, 40000).IPC()
	}
	if a, b := mk(100), mk(1000); a != b {
		t.Fatalf("perfect L2 must hide memory latency entirely: %.3f vs %.3f", a, b)
	}
}

func TestRunStopsAtMaxCycles(t *testing.T) {
	tr := trace.Stream(60000)
	cfg := config.BaselineSized(128)
	cpu, err := New(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	res := cpu.Run(RunOptions{MaxInsts: 50000, MaxCycles: 1000})
	if res.Cycles > 1000 {
		t.Fatalf("cycle bound ignored: %d", res.Cycles)
	}
}

func TestNewRejectsBadInput(t *testing.T) {
	if _, err := New(config.Config{}, trace.Stream(100)); err == nil {
		t.Error("invalid config must be rejected")
	}
	if _, err := New(config.Default(), nil); err == nil {
		t.Error("nil trace must be rejected")
	}
}

func TestTraceExhaustionDrains(t *testing.T) {
	// Run the whole trace: the final checkpoint window must drain.
	tr := trace.FPMix(20000, 13)
	cfg := config.CheckpointDefault(64, 1024)
	cfg.MemoryLatency = 100
	cpu, err := New(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	res := cpu.Run(RunOptions{MaxInsts: 0}) // full trace
	if res.Committed != uint64(tr.Len()) {
		t.Fatalf("committed %d of %d", res.Committed, tr.Len())
	}
}

func TestMemoryPortsThrottleLoads(t *testing.T) {
	// Table 1's "Memory ports: 2" is enforced at issue; on a load-heavy
	// workload, halving the ports must cost throughput.
	tr := trace.StridedStream(90000, 8)
	run := func(ports int) float64 {
		cfg := config.CheckpointDefault(128, 2048)
		cfg.MemoryPorts = ports
		cfg.MemoryLatency = 100
		return mustRun(t, cfg, tr, 50000).IPC()
	}
	one, two := run(1), run(2)
	if two <= one {
		t.Fatalf("two ports (%.3f) should beat one (%.3f)", two, one)
	}
}

func TestSLIQWakeDelayInsensitive(t *testing.T) {
	// Figure 10 as an invariant: 1 vs 12 cycles of wake delay is noise.
	tr := trace.FPMix(90000, 21)
	run := func(delay int) float64 {
		cfg := config.CheckpointDefault(64, 1024)
		cfg.SLIQWakeDelay = delay
		return mustRun(t, cfg, tr, 50000).IPC()
	}
	fast, slow := run(1), run(12)
	diff := (fast - slow) / fast
	if diff > 0.05 || diff < -0.05 {
		t.Fatalf("wake delay sensitivity too high: %.3f vs %.3f", fast, slow)
	}
}

func TestWrongPathWorkIsAccounted(t *testing.T) {
	// Wrong-path instructions consume fetch/dispatch bandwidth but must
	// never commit; Fetched - Committed - (still in flight) reflects them.
	tr := rollbackHeavyTrace(120000)
	cfg := config.CheckpointDefault(32, 1024)
	res := mustRun(t, cfg, tr, 60000)
	if res.Fetched <= res.Committed {
		t.Fatalf("expected wrong-path fetches beyond commits: fetched=%d committed=%d",
			res.Fetched, res.Committed)
	}
}

func TestCommittedMatchesTraceOrder(t *testing.T) {
	// The checkpointed machine must retire exactly the trace's
	// instructions despite out-of-order commit: cross-check committed
	// counts per opcode against the trace prefix.
	n := uint64(30000)
	tr := trace.FPMix(40000, 31)
	cfg := config.CheckpointDefault(64, 1024)
	cfg.MemoryLatency = 100
	cpu, err := New(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	res := cpu.Run(RunOptions{MaxInsts: n})
	// Committed count may exceed n by the tail of the final window.
	if res.Committed < n || res.Committed > n+uint64(cfg.CheckpointMaxInterval)+uint64(cfg.PseudoROBEntries) {
		t.Fatalf("committed %d outside [%d, %d+window]", res.Committed, n, n)
	}
}
