package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/rename"
	"repro/internal/stats"
	"repro/internal/trace"
)

// policyDefaultConfig returns the canonical configuration of a commit
// policy (checkpoint-family sizes kept small for test speed).
func policyDefaultConfig(t *testing.T, m config.CommitMode) config.Config {
	t.Helper()
	switch m {
	case config.CommitROB:
		return config.BaselineSized(128)
	case config.CommitCheckpoint:
		return config.CheckpointDefault(64, 512)
	case config.CommitAdaptive:
		return config.AdaptiveDefault(64, 512)
	case config.CommitOracle:
		return config.OracleDefault()
	}
	t.Fatalf("no default config for commit policy %q", m)
	return config.Config{}
}

// TestEveryCommitPolicyRuns builds and briefly runs a CPU for every
// policy config lists, proving each has a retirement engine in core.
func TestEveryCommitPolicyRuns(t *testing.T) {
	tr := trace.FPMix(trace.LenFor(5000), 42)
	for _, m := range config.CommitModes {
		cpu, err := New(policyDefaultConfig(t, m), tr)
		if err != nil {
			t.Errorf("%s: %v", m, err)
			continue
		}
		if res := cpu.Run(RunOptions{MaxInsts: 5000}); res.Committed < 5000 {
			t.Errorf("%s: committed %d < 5000 (%s)", m, res.Committed, cpu.debugState())
		}
	}
}

// TestPolicyDeterminism pins bit-equal reruns for the two new policies
// (the established ones are covered by TestDeterminism and the golden).
func TestPolicyDeterminism(t *testing.T) {
	tr := rollbackHeavyTrace(90000)
	for _, m := range []config.CommitMode{config.CommitAdaptive, config.CommitOracle} {
		cfg := policyDefaultConfig(t, m)
		a := mustRun(t, cfg, tr, 40000)
		b := mustRun(t, cfg, tr, 40000)
		if !a.Equal(b) {
			t.Errorf("%s: reruns diverged:\n%+v\nvs\n%+v", m, a, b)
		}
	}
}

// TestOracleIsUpperBound: the unbounded window must dominate every
// realisable baseline on a memory-bound workload, and must sustain a
// window no fixed ROB of the compared sizes could hold.
func TestOracleIsUpperBound(t *testing.T) {
	tr := trace.StridedStream(120000, 8)
	oracle := mustRun(t, config.OracleDefault(), tr, 60000)
	small := mustRun(t, config.BaselineSized(128), tr, 60000)
	big := mustRun(t, config.BaselineSized(4096), tr, 60000)
	if oracle.IPC() < small.IPC() {
		t.Errorf("oracle IPC %.3f below baseline-128 %.3f", oracle.IPC(), small.IPC())
	}
	if oracle.IPC() < big.IPC()*0.99 {
		t.Errorf("oracle IPC %.3f below baseline-4096 %.3f", oracle.IPC(), big.IPC())
	}
	if oracle.MeanInflight <= small.MeanInflight {
		t.Errorf("oracle window (%.0f) should dwarf a 128-entry ROB (%.0f)",
			oracle.MeanInflight, small.MeanInflight)
	}
	if oracle.Policy["oracle.max_retire_burst"] == 0 {
		t.Error("oracle retire-burst counter missing")
	}
}

// TestInOrderRetirement checks the one in-order policy in both of its
// forms. Bounded, the window fills to exactly its capacity on a
// memory-bound stream and never retires more than CommitWidth a cycle.
// Unbounded (the oracle), a single cycle retires more than any commit
// width once a slow head finishes.
func TestInOrderRetirement(t *testing.T) {
	tr := trace.StridedStream(60000, 8)
	for _, n := range []int{8, 32, 128} {
		cfg := config.BaselineSized(n)
		cpu, err := New(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		res := cpu.Run(RunOptions{MaxInsts: 30000})
		if res.MaxInflight != cfg.ROBEntries {
			t.Errorf("rob-%d: max in flight %d, want the full window %d", n, res.MaxInflight, cfg.ROBEntries)
		}
		if burst := cpu.policy.(*inOrderPolicy).maxBurst; burst == 0 || burst > uint64(cfg.CommitWidth) {
			t.Errorf("rob-%d: largest retirement %d per cycle, want 1..%d", n, burst, cfg.CommitWidth)
		}
		if res.Policy != nil {
			t.Errorf("rob-%d: the bounded window reports policy counters %v", n, res.Policy)
		}
	}
	oracle := mustRun(t, config.OracleDefault(), rollbackHeavyTrace(60000), 30000)
	width := uint64(config.BaselineSized(128).CommitWidth)
	if burst := oracle.Policy["oracle.max_retire_burst"]; burst <= width {
		t.Errorf("oracle: largest retirement %d per cycle, want more than commit width %d", burst, width)
	}
}

// TestOracleOccupancyNotClamped: the occupancy histogram must be sized
// so the unbounded window never clips into the top bucket — issued
// branches hold no register or LSQ slot, so only the trace length
// bounds correct-path occupancy.
func TestOracleOccupancyNotClamped(t *testing.T) {
	tr := trace.StridedStream(90000, 8)
	cpu, err := New(config.OracleDefault(), tr)
	if err != nil {
		t.Fatal(err)
	}
	res := cpu.Run(RunOptions{MaxInsts: 50000, CollectOccupancy: true})
	if res.Occ == nil {
		t.Fatal("occupancy not collected")
	}
	if res.Occ.Max() != res.MaxInflight {
		t.Fatalf("histogram clamped: occ max %d vs true max %d", res.Occ.Max(), res.MaxInflight)
	}
}

// TestOracleRecoversMispredicts: tail squash on the unbounded window
// must work exactly like the ROB walk.
func TestOracleRecoversMispredicts(t *testing.T) {
	tr := rollbackHeavyTrace(120000)
	res := mustRun(t, config.OracleDefault(), tr, 60000)
	if res.Branch.Mispredicts == 0 {
		t.Fatal("the mix should mispredict sometimes")
	}
	if res.Fetched <= res.Committed {
		t.Error("mispredicts should cost wrong-path fetches")
	}
	if res.Rollbacks != 0 || res.PseudoROBRecoveries != 0 {
		t.Error("oracle recovery must not touch checkpoint counters")
	}
}

// TestAdaptivePlacesCheckpointsAtBranches: on a mispredict-heavy mix
// the estimator must find low-confidence branches and place checkpoints
// immediately before them.
func TestAdaptivePlacesCheckpointsAtBranches(t *testing.T) {
	tr := rollbackHeavyTrace(120000)
	res := mustRun(t, config.AdaptiveDefault(64, 1024), tr, 60000)
	if res.Branch.Mispredicts == 0 {
		t.Fatal("the mix should mispredict sometimes")
	}
	low := res.Policy["adaptive.low_confidence_branches"]
	high := res.Policy["adaptive.high_confidence_branches"]
	if low == 0 || high == 0 {
		t.Fatalf("estimator should see both classes: low=%d high=%d", low, high)
	}
	if res.Policy["adaptive.branch_checkpoints"] == 0 {
		t.Fatal("no checkpoint was ever placed at a branch")
	}
	if res.CheckpointsTaken == 0 || res.CheckpointsCommitted == 0 {
		t.Fatal("checkpoint machinery unused")
	}
}

// TestAdaptiveReducesReplayWaste is the mechanism's point: against pure
// periodic checkpointing (the only rule left once the branch rule is
// removed), confidence-placed checkpoints shorten the rollback replay
// distance on a rollback-heavy workload.
func TestAdaptiveReducesReplayWaste(t *testing.T) {
	tr := rollbackHeavyTrace(150000)
	adaptive := mustRun(t, config.AdaptiveDefault(64, 1024), tr, 80000)

	periodic := config.CheckpointDefault(64, 1024)
	periodic.CheckpointBranchInterval = 512 // disable the branch rule
	periodic.CheckpointMaxInterval = 512
	per := mustRun(t, periodic, tr, 80000)

	if adaptive.Rollbacks == 0 || per.Rollbacks == 0 {
		t.Fatalf("both configurations should roll back: adaptive=%d periodic=%d",
			adaptive.Rollbacks, per.Rollbacks)
	}
	if adaptive.Replayed >= per.Replayed {
		t.Errorf("confidence placement should cut replayed work: adaptive %d >= periodic %d",
			adaptive.Replayed, per.Replayed)
	}
}

// TestAdaptiveExceptionProtocol: the two-pass precise-exception replay
// must work unchanged under the adaptive taking rule.
func TestAdaptiveExceptionProtocol(t *testing.T) {
	tr := trace.FPMix(60000, 6)
	cpu, err := New(config.AdaptiveDefault(64, 1024), tr)
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

// TestCheckpointTakingRule checks shouldTake, the one taking rule of
// both checkpoint-family modes, against the paper's defaults (branch
// after 64 instructions, any op after 512, a store after 64 stores) and
// the adaptive mode's confidence clause. insts counts the instructions
// associated with the youngest checkpoint (-1: the table is empty), the
// last stores of them stores.
func TestCheckpointTakingRule(t *testing.T) {
	const lowPC, highPC = 0x1000, 0x2000
	branch := func(pc uint64) isa.Inst { return isa.Inst{Op: isa.Branch, PC: pc} }
	for _, tc := range []struct {
		name          string
		mode          config.CommitMode
		insts, stores int
		inst          isa.Inst
		want          bool
	}{
		{"empty table", config.CommitCheckpoint, -1, 0, isa.Inst{Op: isa.IntAlu}, true},
		{"empty table", config.CommitAdaptive, -1, 0, isa.Inst{Op: isa.IntAlu}, true},
		{"branch after 63", config.CommitCheckpoint, 63, 0, branch(highPC), false},
		{"branch after 64", config.CommitCheckpoint, 64, 0, branch(highPC), true},
		{"non-branch after 64", config.CommitCheckpoint, 64, 0, isa.Inst{Op: isa.IntAlu}, false},
		{"any op after 512", config.CommitCheckpoint, 512, 0, isa.Inst{Op: isa.FPAlu}, true},
		{"any op after 512", config.CommitAdaptive, 512, 0, isa.Inst{Op: isa.FPAlu}, true},
		{"store after 64 stores", config.CommitCheckpoint, 64, 64, isa.Inst{Op: isa.Store}, true},
		{"fp op after 64 stores", config.CommitCheckpoint, 64, 64, isa.Inst{Op: isa.FPAlu}, false},
		{"store after 64 stores", config.CommitAdaptive, 64, 64, isa.Inst{Op: isa.Store}, true},
		{"fp op after 64 stores", config.CommitAdaptive, 64, 64, isa.Inst{Op: isa.FPAlu}, false},
		{"low-confidence branch", config.CommitAdaptive, 1, 0, branch(lowPC), true},
		{"high-confidence branch after 64", config.CommitAdaptive, 64, 0, branch(highPC), false},
		{"low-confidence branch, empty window", config.CommitAdaptive, 0, 0, branch(lowPC), false},
	} {
		t.Run(string(tc.mode)+"/"+tc.name, func(t *testing.T) {
			cpu, err := New(policyDefaultConfig(t, tc.mode), trace.FPMix(1000, 42))
			if err != nil {
				t.Fatal(err)
			}
			if cpu.conf != nil {
				cpu.conf.Update(lowPC, false)
			}
			p := cpu.policy.(*checkpointPolicy)
			if tc.insts >= 0 {
				e := p.ckpts.Take(0, 0, 0)
				for i := 0; i < tc.insts; i++ {
					op := isa.IntAlu
					if i >= tc.insts-tc.stores {
						op = isa.Store
					}
					e.Associate(op)
				}
			}
			if got := p.shouldTake(tc.inst); got != tc.want {
				t.Errorf("shouldTake(%v) = %v, want %v", tc.inst.Op, got, tc.want)
			}
		})
	}
}

// checkpointFamilyConfigs builds one equivalent configuration per
// checkpoint-family policy for the recovery corner-case tests.
func checkpointFamilyConfigs(mutate func(*config.Config)) map[string]config.Config {
	ck := config.CheckpointDefault(32, 512)
	ad := config.AdaptiveDefault(32, 512)
	out := map[string]config.Config{}
	for name, cfg := range map[string]config.Config{"checkpoint": ck, "adaptive": ad} {
		mutate(&cfg)
		out[name] = cfg
	}
	return out
}

// TestExceptionReplayWithFullCheckpointTable is the first recovery
// corner case of the policy seam: with a 2-entry table and tiny forced
// windows, the table is persistently full, so the exception replay's
// phase-2 checkpoint (which must land exactly before the excepting
// instruction) has to ride out full-table stalls before it can deliver.
// Both checkpoint-family policies must deliver precisely and remain
// deterministic.
func TestExceptionReplayWithFullCheckpointTable(t *testing.T) {
	tr := trace.FPMix(40000, 11)
	for name, cfg := range checkpointFamilyConfigs(func(c *config.Config) {
		c.Checkpoints = 2
		if c.Commit == config.CommitCheckpoint {
			c.CheckpointBranchInterval = 16
		}
		c.CheckpointMaxInterval = 16
		c.MemoryLatency = 100
	}) {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			run := func() stats.Results {
				cpu, err := New(cfg, tr)
				if err != nil {
					t.Fatal(err)
				}
				cpu.InjectExceptionAt(3000)
				res := cpu.Run(RunOptions{MaxInsts: 20000})
				if cpu.Exceptions() != 1 {
					t.Fatalf("delivered %d exceptions, want 1", cpu.Exceptions())
				}
				return res
			}
			a, b := run(), run()
			if a.Committed < 20000 {
				t.Fatalf("committed %d < 20000", a.Committed)
			}
			if a.CheckpointStallCycles == 0 {
				t.Fatal("the 2-entry table should stall fetch; the full-table path was never exercised")
			}
			if a.Rollbacks == 0 {
				t.Fatal("exception delivery requires a rollback")
			}
			if !a.Equal(b) {
				t.Fatalf("reruns diverged:\n%+v\nvs\n%+v", a, b)
			}
		})
	}
}

// TestBranchRecoveryAtPseudoROBBoundary is the second corner case: with
// a checkpoint forced before every instruction, a resolving mispredicted
// branch sits exactly on the recovery boundary — pseudo-ROB recovery is
// only legal when no younger checkpoint exists (Youngest().StartSeq <=
// b.Seq, the equality edge), and every other branch must take the
// rollback path even while still pseudo-ROB resident. Both policies
// must pick correctly, make progress, and stay deterministic.
func TestBranchRecoveryAtPseudoROBBoundary(t *testing.T) {
	tr := rollbackHeavyTrace(60000)
	for name, cfg := range checkpointFamilyConfigs(func(c *config.Config) {
		c.Checkpoints = 8
		if c.Commit == config.CommitCheckpoint {
			c.CheckpointBranchInterval = 1
		}
		c.CheckpointMaxInterval = 1 // checkpoint before every instruction
		c.CheckpointMaxStores = 1
		c.MemoryLatency = 100
	}) {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			a := mustRun(t, cfg, tr, 8000)
			b := mustRun(t, cfg, tr, 8000)
			if a.Branch.Mispredicts == 0 {
				t.Fatal("the mix should mispredict sometimes")
			}
			if a.Rollbacks == 0 {
				t.Fatal("per-instruction checkpoints force the rollback path at the boundary")
			}
			if !a.Equal(b) {
				t.Fatalf("reruns diverged:\n%+v\nvs\n%+v", a, b)
			}
		})
	}

	// The opposite edge: branches that resolve while still pseudo-ROB
	// resident with no younger checkpoint must use pseudo-ROB recovery
	// (both policies; fast index-chain branches of the fp mix).
	fast := trace.FPMix(120000, 42)
	for name, cfg := range checkpointFamilyConfigs(func(c *config.Config) {
		c.IntQueueEntries = 128
		c.FPQueueEntries = 128
		c.PseudoROBEntries = 128
		c.SLIQEntries = 1024
	}) {
		cfg := cfg
		t.Run(name+"/in-prob", func(t *testing.T) {
			res := mustRun(t, cfg, fast, 80000)
			if res.PseudoROBRecoveries == 0 {
				t.Fatal("fast-resolving mispredicts should recover from the pseudo-ROB")
			}
		})
	}
}

// TestPolicyCountersMerge: folding a sampled window into a run total
// must carry the adaptive policy's counters as the window's deltas, like
// every other counter. The window is two snapshots of one CPU, as in
// RunSampled.
func TestPolicyCountersMerge(t *testing.T) {
	cpu, err := New(config.AdaptiveDefault(64, 512), rollbackHeavyTrace(60000))
	if err != nil {
		t.Fatal(err)
	}
	warm := cpu.Run(RunOptions{MaxInsts: 10000})
	full := cpu.Run(RunOptions{MaxInsts: 20000})
	if len(full.Policy) == 0 {
		t.Fatal("adaptive run produced no policy counters")
	}
	var total stats.Results
	total.AddInterval(full, warm)
	total.AddInterval(full, warm)
	moved := false
	for k, v := range full.Policy {
		want := 2 * (v - warm.Policy[k])
		if total.Policy[k] != want {
			t.Errorf("%s: folded %d, want %d", k, total.Policy[k], want)
		}
		moved = moved || want > 0
	}
	if !moved {
		t.Fatal("no policy counter moved inside the window; the check is vacuous")
	}
}

// TestCommitPoliciesPinned pins the result bytes of every commit policy
// on a rollback-heavy synthetic mix and a real program: the SHA-256 of
// each run's JSON encoding. The hashes were computed on the tree that
// still had separate ROB and oracle policies, before they were merged
// into one in-order policy, so the merge (and any later change to
// retirement) must reproduce them byte for byte. Occupancy collection
// pins each policy's OccupancyBound through the histogram length:
// bounded for rob, unbounded for oracle.
func TestCommitPoliciesPinned(t *testing.T) {
	want := map[string]string{
		"rob-32/rollback-heavy":            "24ef095fc3a018810db3fcb1ccfae0987b5055134752bde50022ea9b92e27b2c",
		"rob-32/isort":                     "bb49be9ed507ab05497a18be9d31e56cb9dd14f4a0f4c9670136a25f66f8626b",
		"rob-128/rollback-heavy":           "e16b9d64c0ca074abec15712583a7d2863dff4100b8e038579770f1c012dc6f1",
		"rob-128/isort":                    "292cecd5c936fd022164f294d09046c0f399530ba4cf7bb06b3b3a3d390390b4",
		"checkpoint-64/512/rollback-heavy": "b4cec866799e4484d9911693fb65f31b58b8ddaa3a0b9b2661c193b50f05820a",
		"checkpoint-64/512/isort":          "4e087216819374f060606a9ecbfcc4fac3b835b6c2b33b77c3da090eadcf9839",
		"adaptive-64/512/rollback-heavy":   "64b04d6c448bc315d22e1bf2945a96e2b22dd5be98ddbc95f128b52766b2b198",
		"adaptive-64/512/isort":            "0ac4856dec9753803da55c5b2ec0b4a0eb71f6662e032398fe58069ee4280622",
		"oracle/rollback-heavy":            "7ec1e050e723629f6ed1f89203edffda73c040d7c1850a6384fcdd616224d8e2",
		"oracle/isort":                     "12c38a4d8b198896b8b10399d07a283b1dbf5d123c2afbfcb6168e5e9980ec78",
	}
	traces := []struct {
		name string
		tr   *trace.Trace
	}{
		{"rollback-heavy", rollbackHeavyTrace(60000)},
		{"isort", programTrace(t, "isort", 400)},
	}
	for _, pc := range []struct {
		name   string
		cfg    config.Config
		except bool
	}{
		{"rob-32", config.BaselineSized(32), false},
		{"rob-128", config.BaselineSized(128), false},
		{"checkpoint-64/512", config.CheckpointDefault(64, 512), true},
		{"adaptive-64/512", config.AdaptiveDefault(64, 512), false},
		{"oracle", config.OracleDefault(), false},
	} {
		for _, tc := range traces {
			name := pc.name + "/" + tc.name
			cpu, err := New(pc.cfg, tc.tr)
			if err != nil {
				t.Fatal(err)
			}
			if pc.except {
				cpu.InjectExceptionAt(5000)
			}
			res := cpu.Run(RunOptions{MaxInsts: 30000, CollectOccupancy: true})
			if pc.except && cpu.Exceptions() != 1 {
				t.Errorf("%s: delivered %d exceptions, want 1", name, cpu.Exceptions())
			}
			if err := res.CheckIdentities(); err != nil {
				t.Error(err)
			}
			raw, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(raw)
			if got := hex.EncodeToString(sum[:]); got != want[name] {
				t.Errorf("%s: result hash %s, want %s", name, got, want[name])
			}
		}
	}
}

// TestSLIQWakesOnceForADoubleSourceTrigger dispatches a consumer that
// reads its producer's register as both sources, so it sits on that
// register's wait list twice, and moves it to the SLIQ with that
// register as its trigger. The producer's write must start exactly one
// wake (finishCompletion resets the trigger at the first), and the
// resident must drain back into its issue queue once: a second wake
// item would hand the pump a record already back in its queue.
func TestSLIQWakesOnceForADoubleSourceTrigger(t *testing.T) {
	cpu, err := New(config.CheckpointDefault(32, 512), trace.FPMix(1000, 42))
	if err != nil {
		t.Fatal(err)
	}
	p := cpu.policy.(*checkpointPolicy)
	r1 := isa.IntReg(1)
	for pos, inst := range []isa.Inst{
		{Op: isa.IntAlu, Dest: r1, Src1: isa.IntReg(2), Src2: isa.RegNone},
		{Op: isa.IntAlu, Dest: isa.IntReg(3), Src1: r1, Src2: r1},
	} {
		if !cpu.tryDispatch(inst, int64(pos), false) {
			t.Fatalf("dispatch %d stalled", pos)
		}
	}
	prod, cons := cpu.window.At(0), cpu.window.At(1)
	trigger := prod.DestPhys
	waits := 0
	for _, ref := range cpu.regs[trigger].waiters {
		if ref.d == cons {
			waits++
		}
	}
	if cons.SrcPhys != [2]rename.PhysReg{trigger, trigger} || waits != 2 {
		t.Fatalf("consumer reads %v and waits %d times on p%d, want both sources and two waits", cons.SrcPhys, waits, trigger)
	}
	if !p.moveToSLIQ(cons, trigger) {
		t.Fatal("the consumer did not move to the SLIQ")
	}

	cpu.finishCompletion(prod)
	if got := cpu.sliq.Stats().Wakes; got != 1 {
		t.Errorf("the trigger's write started %d wakes, want 1", got)
	}
	cpu.now += int64(cpu.cfg.SLIQWakeDelay)
	for range 2 {
		cpu.drainSLIQ()
		if got := cpu.sliq.Stats().Woken; got != 1 || !cons.iqe.Resident() || cons.inSLIQ {
			t.Fatalf("after a drain: %d drained, consumer queued %v, in the SLIQ %v; want one drain back into the queue",
				got, cons.iqe.Resident(), cons.inSLIQ)
		}
	}
}
