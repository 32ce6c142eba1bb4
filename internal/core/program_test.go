package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/config"
	"repro/internal/isa/programs"
	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/trace"
)

// programTrace materialises a program-backed workload for core tests.
func programTrace(t *testing.T, name string, input int) *trace.Trace {
	t.Helper()
	r := trace.Recipe{Kernel: trace.KernelProgram, Program: name, Input: input, Seed: 42}
	tr, err := r.Materialise()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestProgramWorkloadCounters pins what the real-program frontend buys
// over the synthetic kernels: real fetch PCs give the BTB something to
// predict (hits on loop branches) and real effective addresses give the
// LSQ genuine store-to-load forwarding. Both counter blocks must be
// surfaced in the results — and absent for synthetic workloads, whose
// encodings must stay byte-identical.
func TestProgramWorkloadCounters(t *testing.T) {
	cfg := config.CheckpointDefault(64, 1024)
	for _, tc := range []struct {
		program  string
		input    int
		forwards bool // must observe store-to-load forwarding
	}{
		// Insertion sort shifts elements through memory: stores to a[j+1]
		// feed the next iteration's loads.
		{"isort", 150, true},
		// The pointer chase spills and reloads its payload accumulator
		// every step, a guaranteed forward.
		{"chase", 4000, true},
	} {
		t.Run(tc.program, func(t *testing.T) {
			tr := programTrace(t, tc.program, tc.input)
			n := uint64(tr.Len()) / 2
			res := mustRun(t, cfg, tr, n)
			if res.BTB == nil {
				t.Fatal("program run surfaced no BTB counters")
			}
			if res.BTB.Lookups == 0 || res.BTB.Hits == 0 {
				t.Fatalf("BTB never hit: %+v", *res.BTB)
			}
			if res.LSQ == nil {
				t.Fatal("program run surfaced no LSQ counters")
			}
			if res.LSQ.Loads == 0 || res.LSQ.Stores == 0 {
				t.Fatalf("LSQ saw no memory traffic: %+v", *res.LSQ)
			}
			if tc.forwards && res.LSQ.Forwards == 0 {
				t.Fatalf("no store-to-load forwarding observed: %+v", *res.LSQ)
			}
			t.Logf("%s: btb hit-rate %.2f, %d forwards over %d loads",
				tc.program, res.BTB.HitRate(), res.LSQ.Forwards, res.LSQ.Loads)
		})
	}

	// Synthetic control: the counter blocks must stay nil so cached
	// synthetic results keep their encodings.
	syn := mustRun(t, cfg, trace.FPMix(20000, 7), 10000)
	if syn.BTB != nil || syn.LSQ != nil {
		t.Fatalf("synthetic run surfaced program-only counters: BTB=%v LSQ=%v", syn.BTB, syn.LSQ)
	}
}

// TestProgramForkedWarmMatchesCold extends the snapshot-fork determinism
// contract to program-backed workloads under every commit-policy family:
// a forked-warm CPU must be bit-identical to a cold-started one through
// real-PC branch recovery (BTB mispredicts, checkpoint rollbacks).
func TestProgramForkedWarmMatchesCold(t *testing.T) {
	tr := programTrace(t, "isort", 150)
	n := uint64(tr.Len()) / 2
	for _, tc := range []struct {
		name string
		cfg  config.Config
	}{
		{"rob", config.BaselineSized(128)},
		{"checkpoint", config.CheckpointDefault(32, 1024)},
		{"adaptive", config.AdaptiveDefault(32, 1024)},
		{"oracle", config.OracleDefault()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(forked bool) stats.Results {
				var cpu *CPU
				var err error
				if forked {
					donor, derr := WarmDonor(mem.WarmKeyFor(tc.cfg), tr)
					if derr != nil {
						t.Fatal(derr)
					}
					cpu, err = NewForked(tc.cfg, tr, donor, NewArena())
				} else {
					cpu, err = New(tc.cfg, tr)
				}
				if err != nil {
					t.Fatal(err)
				}
				return cpu.Run(RunOptions{MaxInsts: n})
			}
			cold, fork := run(false), run(true)
			if tc.name != "oracle" && cold.Rollbacks+cold.PseudoROBRecoveries+cold.Branch.Mispredicts == 0 {
				t.Fatal("program must exercise branch recovery for the comparison to mean anything")
			}
			if !cold.Equal(fork) {
				t.Fatalf("forked-warm program run diverged from cold:\ncold: %+v\nfork: %+v", cold, fork)
			}
		})
	}
}

// TestProgramSkipEquivalence extends the clock skip's bit-equality
// contract to program-backed wrong paths: the wrong-path stream now
// comes from the real static image, so the skip's op-independence guard
// must hold for image ops (Nops skip rename; everything is bound for
// the integer queue).
func TestProgramSkipEquivalence(t *testing.T) {
	tr := programTrace(t, "chase", 6000)
	n := uint64(tr.Len()) * 3 / 4
	for _, tc := range []struct {
		name string
		cfg  config.Config
	}{
		{"rob", config.BaselineSized(128)},
		{"checkpoint", config.CheckpointDefault(32, 1024)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.MemoryLatency = 2000 // long stalls → real quiescent stretches
			tick, skip, skipped := runAB(t, cfg, tr, RunOptions{MaxInsts: n, CollectOccupancy: true}, nil)
			if !tick.Equal(skip) {
				t.Fatalf("skip run diverged on a program workload:\ntick: %+v\nskip: %+v", tick, skip)
			}
			if skipped == 0 {
				t.Fatal("clock skip never engaged; the equivalence check is vacuous")
			}
			t.Logf("%s: %d/%d cycles elided", tc.name, skipped, tick.Cycles)
		})
	}
}

// TestProgramCPUsShareTraceConcurrently: one materialised program trace
// (including its static image) is shared read-only across concurrent
// CPUs. Run under -race in CI.
func TestProgramCPUsShareTraceConcurrently(t *testing.T) {
	tr := programTrace(t, "hashjoin", 1200)
	cfg := config.CheckpointDefault(64, 512)
	n := uint64(tr.Len()) / 2
	const workers = 4
	results := make([]stats.Results, workers)
	done := make(chan struct{}, workers)
	for i := 0; i < workers; i++ {
		go func(i int) {
			defer func() { done <- struct{}{} }()
			cpu, err := New(cfg, tr)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = cpu.Run(RunOptions{MaxInsts: n})
		}(i)
	}
	for i := 0; i < workers; i++ {
		<-done
	}
	serial := mustRun(t, cfg, tr, n)
	for i, r := range results {
		if !r.Equal(serial) {
			t.Fatalf("concurrent program CPU %d diverged from serial:\n%+v\nvs\n%+v", i, r, serial)
		}
	}
}

// TestProgramRollbacksPinned pins the result bytes of program runs that
// roll back, with the clock skip on and off. Of the five suite programs
// at a 60k-instruction budget only hashjoin rolls back under these two
// configurations, so a replayed program branch that forgot its
// rollback-resolved direction (or remembered one it never had) moves
// these bytes before anything else notices.
func TestProgramRollbacksPinned(t *testing.T) {
	want := map[string]string{
		"checkpoint-32/512": "0f01dbe99f3672bce16100192d0f98222067a2922bbe343f3f80bc065a7f6a62",
		"adaptive-32/512":   "5ee114bce9b906f6737fbbd0608d06868c4659f8f874b290a671e7826b2031d0",
	}
	const insts = 60000
	spec, _ := programs.Lookup("hashjoin")
	tr := programTrace(t, "hashjoin", spec.InputFor(insts))
	for _, tc := range []struct {
		name string
		cfg  config.Config
	}{
		{"checkpoint-32/512", config.CheckpointDefault(32, 512)},
		{"adaptive-32/512", config.AdaptiveDefault(32, 512)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tick, skip, _ := runAB(t, tc.cfg, tr, RunOptions{MaxInsts: insts}, nil)
			if !tick.Equal(skip) {
				t.Fatalf("skip run diverged from cycle-by-cycle run:\ntick: %+v\nskip: %+v", tick, skip)
			}
			if tick.Rollbacks == 0 {
				t.Fatal("no rollback: the pin covers no replayed branch")
			}
			h := sha256.New()
			hashResults(t, h, tick)
			hashResults(t, h, skip)
			if got := hex.EncodeToString(h.Sum(nil)); got != want[tc.name] {
				t.Errorf("result hash %s, want %s (%d rollbacks)", got, want[tc.name], tick.Rollbacks)
			}
		})
	}
}
