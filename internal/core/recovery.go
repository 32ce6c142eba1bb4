package core

import (
	"repro/internal/rename"
)

// resolveMispredict handles a mispredicted branch at resolution time:
// the policy-specific recovery (ROB/oracle tail squash, pseudo-ROB
// recovery or checkpoint rollback, each one squashYounger walk) runs
// between clearing the wrong-path fetch state and charging the
// front-end redirect penalty.
func (c *CPU) resolveMispredict(b *DynInst) {
	c.divergedAt = nil
	c.policy.ResolveMispredict(b)
	c.fetchResumeAt = c.now + int64(c.cfg.BranchMispredictPenalty)
}

// squashYounger is every recovery's one squash walk: it squashes the
// window's instructions with Seq >= seq, youngest first. unwindRename
// unwinds each CAM rename mapping on the way (branch recoveries); a
// checkpoint rollback restores a snapshot instead.
func (c *CPU) squashYounger(seq uint64, unwindRename bool) {
	for c.window.Len() > 0 && c.window.Back().Seq >= seq {
		c.squashInst(c.window.PopBack(), unwindRename)
	}
}

// squashInst removes one instruction, already popped from the window,
// from every other structure: it is the one path that frees a squashed
// record's slot in the issue queue, the SLIQ, the LSQ and the completion
// wheel and takes it out of its checkpoint's counters. It finally
// releases the record to the free list, poisoning its Seq, which kills
// every seq-checked reference still held elsewhere (see DynInst).
func (c *CPU) squashInst(d *DynInst, unwindRename bool) {
	if d.countedLive {
		d.countedLive = false
		if d.LiveLong {
			c.liveFPLong--
		} else {
			c.liveFPShort--
		}
	}
	if d.iqe.Resident() {
		c.iqFor(d.Inst.Op).Remove(&d.iqe)
	}
	if d.inSLIQ {
		// The slot frees now. A trigger wait left on a wait list, or a
		// woken item in the wake set, is dead from the release below.
		d.inSLIQ = false
		c.sliq.Squash()
	}
	// Unschedule any pending completion so the event wheel never holds
	// a released record.
	c.completions.remove(d)
	if d.lsqe != nil {
		c.lq.Squash(d.lsqe)
		d.lsqe = nil
	}
	if d.ckpt != nil {
		d.ckpt.Squash(d.Inst.Op, d.Done)
	}

	if d.DestPhys != rename.PhysNone {
		r := &c.regs[d.DestPhys]
		if c.vt != nil {
			if !d.Done {
				// Covers both queued and deferred-bind instructions: the
				// tag is still held until binding succeeds.
				c.vt.UnRename()
			} else if r.vbound {
				r.vbound = false
				c.vt.SquashBound()
			}
		}
		if unwindRename {
			c.rt.Unwind(d.Inst.Dest, d.DestPhys, d.PrevPhys)
		}
		// Every waiter, a SLIQ resident's trigger wait included, depends
		// on d, so the youngest-first walk has already squashed it.
		r.ready, r.longTaint = false, false
		r.waiters = r.waiters[:0]
		if r.producer == d {
			r.producer = nil
		}
	}

	c.inflight--
	if !d.WrongPath {
		c.replayed++
	}
	c.pool.release(d)
}
