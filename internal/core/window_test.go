package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/rename"
	"repro/internal/stats"
)

// TestWindowInvariantsPerCycle steps each commit-policy family one cycle
// at a time through branch rollbacks, pseudo-ROB recoveries and the
// two-pass exception protocol, and checks the in-flight window after
// every cycle: program order, live records only, one LSQ entry per
// memory record, one issue-queue or SLIQ slot per resident record, each
// waiting SLIQ resident on its trigger's wait list and waking only at
// its trigger's write, each record's checkpoint, the live checkpoints'
// counters, the committed prefix and the extraction cursor; each
// cycle's results must satisfy the counter identities
// (stats.Results.CheckIdentities). The stepped run must also match a
// plain run bit for bit, so stepping observes the machine without
// perturbing it. Every checkpoint-family run squashes SLIQ residents,
// so the slots and counters a squash frees are checked too, and parks
// a resident on a trigger that is not one of its sources, the wait
// list entry that moveToSLIQ adds.
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
			// Stepped first, so a broken invariant fails at its first
			// cycle instead of wedging the plain run until the watchdog.
			cpu := run()
			var got stats.Results
			var sawRetired, sawExtracted bool
			var trigWaits int
			var waits []sliqWait
			for {
				before := cpu.now
				got = cpu.Run(RunOptions{MaxInsts: insts, MaxCycles: before + 1, DisableSkip: true})
				if cpu.now == before {
					break
				}
				var n int
				var err error
				waits, n, err = checkWindow(cpu, waits)
				if err == nil {
					err = got.CheckIdentities()
				}
				if err != nil {
					t.Fatalf("cycle %d: %v", before, err)
				}
				trigWaits += n
				if p, ok := cpu.policy.(*checkpointPolicy); ok {
					sawRetired = sawRetired || p.retired > 0
					sawExtracted = sawExtracted || p.extracted > 0
				}
			}
			want := run().Run(RunOptions{MaxInsts: insts, DisableSkip: true})
			if !got.Equal(want) {
				t.Fatalf("stepped run diverged from a plain run:\nstepped: %+v\n  plain: %+v", got, want)
			}
			if err := want.CheckIdentities(); err != nil {
				t.Fatal(err)
			}
			if got.Branch.Mispredicts == 0 {
				t.Fatal("no branch mispredicted; the squash walk went unchecked")
			}
			if _, ok := cpu.policy.(*checkpointPolicy); ok {
				if !sawRetired || !sawExtracted || got.Rollbacks == 0 || cpu.Exceptions() != 1 {
					t.Fatalf("a cursor or recovery went unexercised: retired %v, extracted %v, %d rollbacks, %d exceptions",
						sawRetired, sawExtracted, got.Rollbacks, cpu.Exceptions())
				}
				if cpu.sliq.Stats().Squashed == 0 {
					t.Fatal("no SLIQ resident was squashed; the lazy SLIQ removal went unchecked")
				}
				if trigWaits == 0 {
					t.Fatal("no SLIQ resident waited on a trigger outside its sources; moveToSLIQ's wait went unchecked")
				}
			}
		})
	}
}

// sliqWait is a waiting SLIQ resident as the end of one cycle saw it.
type sliqWait struct {
	d       *DynInst
	seq     uint64
	trigger rename.PhysReg
}

// checkWindow validates the in-flight window between cycles. prev holds
// the waiting SLIQ residents the previous cycle's check saw: each one
// still live that no longer waits must have seen its trigger written.
// It returns this cycle's waiting residents, reusing prev's array, and
// counts those whose trigger is not one of their sources.
func checkWindow(c *CPU, prev []sliqWait) (waits []sliqWait, trigWaits int, err error) {
	for _, w := range prev {
		d := w.d
		if holdsSeq(w.seq, d) && !(d.inSLIQ && d.sliqTrigger == w.trigger) && !c.regs[w.trigger].ready {
			return nil, 0, fmt.Errorf("SLIQ resident %v stopped waiting on p%d before its write", d, w.trigger)
		}
	}
	waits = prev[:0]
	// retired is the committed prefix; in-order commit pops its records.
	var retired, extracted int
	p, ckptFamily := c.policy.(*checkpointPolicy)
	if ckptFamily {
		retired, extracted = p.retired, p.extracted
		if retired != 0 && extracted != 0 {
			return nil, 0, fmt.Errorf("retired %d and extracted %d both non-zero", retired, extracted)
		}
		if n := p.probLen(); n < 0 || n > c.cfg.PseudoROBEntries {
			return nil, 0, fmt.Errorf("pseudo-ROB holds %d of %d entries", n, c.cfg.PseudoROBEntries)
		}
	}
	// counts is what the window holds of one live checkpoint's window;
	// next is the live checkpoint after it, if any.
	type counts struct {
		insts, stores, pending int
		next                   *rename.Checkpoint
	}
	ckpts := map[*rename.Checkpoint]*counts{}
	if ckptFamily {
		for i := 0; i < p.ckpts.Len(); i++ {
			n := &counts{}
			if i+1 < p.ckpts.Len() {
				n.next = p.ckpts.At(i + 1)
			}
			ckpts[p.ckpts.At(i)] = n
		}
	}
	memOps, iqResident, sliqResident := 0, 0, 0
	for i := 0; i < c.window.Len(); i++ {
		d := c.window.At(i)
		switch {
		case d.released():
			return nil, 0, fmt.Errorf("window position %d holds a dead record %v", i, d)
		case i > 0 && d.Seq <= c.window.At(i-1).Seq:
			return nil, 0, fmt.Errorf("window seqs out of order at %d: %d after %d", i, d.Seq, c.window.At(i-1).Seq)
		}
		if d.lsqe != nil {
			memOps++
		}
		if d.iqe.Resident() {
			iqResident++
		}
		if d.inSLIQ {
			sliqResident++
		}
		if t := d.sliqTrigger; d.inSLIQ && t != rename.PhysNone {
			// A waiting resident: its trigger is unwritten, and it waits
			// on the trigger's wait list under its current seq.
			r := &c.regs[t]
			if r.ready {
				return nil, 0, fmt.Errorf("SLIQ resident %v waits on p%d, which is written", d, t)
			}
			if !slices.Contains(r.waiters, consumerRef{d: d, seq: d.Seq}) {
				return nil, 0, fmt.Errorf("SLIQ resident %v waits on p%d but is not on its wait list", d, t)
			}
			if !slices.Contains(d.SrcPhys[:d.NumSrcs], t) {
				trigWaits++
			}
			waits = append(waits, sliqWait{d: d, seq: d.Seq, trigger: t})
		}
		// A committed record has let go of its checkpoint, whose slot a
		// later take reuses; an uncommitted one points at the live
		// checkpoint whose window holds it.
		if i < retired || !ckptFamily {
			if d.ckpt != nil {
				return nil, 0, fmt.Errorf("committed or in-order record %v points at checkpoint %d", d, d.ckpt.ID)
			}
			continue
		}
		n := ckpts[d.ckpt]
		switch {
		case n == nil:
			return nil, 0, fmt.Errorf("uncommitted record %v points at no live checkpoint", d)
		case d.ckpt.StartSeq > d.Seq || n.next != nil && n.next.StartSeq <= d.Seq:
			return nil, 0, fmt.Errorf("record %v is outside the window of its checkpoint %d (start %d)", d, d.ckpt.ID, d.ckpt.StartSeq)
		}
		n.insts++
		if d.Inst.Op == isa.Store {
			n.stores++
		}
		if !d.Done {
			n.pending++
		}
	}
	if memOps != c.lq.Len() {
		return nil, 0, fmt.Errorf("%d window records hold an LSQ entry, the LSQ holds %d", memOps, c.lq.Len())
	}
	if n := c.intQ.Len() + c.fpQ.Len(); iqResident != n {
		return nil, 0, fmt.Errorf("%d window records hold an issue-queue entry, the queues hold %d", iqResident, n)
	}
	if c.sliq != nil && sliqResident != c.sliq.Len() {
		return nil, 0, fmt.Errorf("%d window records are SLIQ residents, the SLIQ holds %d", sliqResident, c.sliq.Len())
	}
	for e, n := range ckpts {
		// The end-of-program drain commits the final window's records
		// but keeps its checkpoint; a live checkpoint without records
		// has nothing to compare.
		if n.insts == 0 {
			continue
		}
		if e.Insts != n.insts || e.Stores != n.stores || e.Pending != n.pending {
			return nil, 0, fmt.Errorf("checkpoint %d counts %d insts, %d stores, %d pending; its window holds %d, %d, %d",
				e.ID, e.Insts, e.Stores, e.Pending, n.insts, n.stores, n.pending)
		}
	}
	if c.inflight != c.window.Len()-retired {
		return nil, 0, fmt.Errorf("inflight %d, window %d minus %d committed", c.inflight, c.window.Len(), retired)
	}
	return waits, trigWaits, nil
}
