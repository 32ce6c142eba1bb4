package core

import (
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/stats"
)

// TestWindowInvariantsPerCycle steps each commit-policy family one cycle
// at a time through branch rollbacks, pseudo-ROB recoveries and the
// two-pass exception protocol, and checks the in-flight window after
// every cycle: program order, live records only, one LSQ entry per
// memory record, the committed prefix and the extraction cursor. The
// stepped run must also match a plain run bit for bit, so stepping
// observes the machine without perturbing it.
func TestWindowInvariantsPerCycle(t *testing.T) {
	tr := rollbackHeavyTrace(30000)
	const insts, exceptAt = 20000, 5000
	for _, tc := range []struct {
		name string
		cfg  config.Config
	}{
		{"rob-32", config.BaselineSized(32)},
		{"oracle", config.OracleDefault()},
		{"checkpoint-32/512", config.CheckpointDefault(32, 512)},
		{"adaptive-32/512", config.AdaptiveDefault(32, 512)},
		{"checkpoint-vreg", vregConfig(config.CheckpointDefault(32, 512), 128, 80)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func() *CPU {
				cpu, err := New(tc.cfg, tr)
				if err != nil {
					t.Fatal(err)
				}
				cpu.InjectExceptionAt(exceptAt)
				return cpu
			}
			want := run().Run(RunOptions{MaxInsts: insts, DisableSkip: true})

			cpu := run()
			var got stats.Results
			var sawRetired, sawExtracted bool
			for {
				before := cpu.now
				got = cpu.Run(RunOptions{MaxInsts: insts, MaxCycles: before + 1, DisableSkip: true})
				if cpu.now == before {
					break
				}
				if err := checkWindow(cpu); err != nil {
					t.Fatalf("cycle %d: %v", before, err)
				}
				if p, ok := cpu.policy.(*checkpointPolicy); ok {
					sawRetired = sawRetired || p.retired > 0
					sawExtracted = sawExtracted || p.extracted > 0
				}
			}
			if !got.Equal(want) {
				t.Fatalf("stepped run diverged from a plain run:\nstepped: %+v\n  plain: %+v", got, want)
			}
			if got.Branch.Mispredicts == 0 {
				t.Fatal("no branch mispredicted; the squash walk went unchecked")
			}
			if _, ok := cpu.policy.(*checkpointPolicy); ok {
				if !sawRetired || !sawExtracted || got.Rollbacks == 0 || cpu.Exceptions() != 1 {
					t.Fatalf("a cursor or recovery went unexercised: retired %v, extracted %v, %d rollbacks, %d exceptions",
						sawRetired, sawExtracted, got.Rollbacks, cpu.Exceptions())
				}
			}
		})
	}
}

// checkWindow validates the in-flight window between cycles.
func checkWindow(c *CPU) error {
	// retired is the committed prefix; in-order commit pops its records.
	var retired, extracted int
	if p, ok := c.policy.(*checkpointPolicy); ok {
		retired, extracted = p.retired, p.extracted
		if retired != 0 && extracted != 0 {
			return fmt.Errorf("retired %d and extracted %d both non-zero", retired, extracted)
		}
		if n := p.probLen(); n < 0 || n > c.cfg.PseudoROBEntries {
			return fmt.Errorf("pseudo-ROB holds %d of %d entries", n, c.cfg.PseudoROBEntries)
		}
	}
	memOps := 0
	for i := 0; i < c.window.Len(); i++ {
		d := c.window.At(i)
		switch {
		case d.Seq == poisonSeq || d.Squashed:
			return fmt.Errorf("window position %d holds a dead record %v", i, d)
		case i > 0 && d.Seq <= c.window.At(i-1).Seq:
			return fmt.Errorf("window seqs out of order at %d: %d after %d", i, d.Seq, c.window.At(i-1).Seq)
		}
		if d.lsqe != nil {
			memOps++
		}
	}
	if memOps != c.lq.Len() {
		return fmt.Errorf("%d window records hold an LSQ entry, the LSQ holds %d", memOps, c.lq.Len())
	}
	if c.inflight != c.window.Len()-retired {
		return fmt.Errorf("inflight %d, window %d minus %d committed", c.inflight, c.window.Len(), retired)
	}
	return nil
}
