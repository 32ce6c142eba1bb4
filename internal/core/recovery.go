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
		// The slot frees now; the SLIQ drops the entry, dead from the
		// release below, when it next reaches it.
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

	if c.vt != nil && d.DestPhys != rename.PhysNone {
		if d.Done {
			if c.vbound[d.DestPhys] {
				c.vbound[d.DestPhys] = false
				c.vt.SquashBound()
			}
		} else {
			// Covers both queued and deferred-bind instructions: the
			// tag is still held until binding succeeds.
			c.vt.UnRename()
		}
	}

	if d.DestPhys != rename.PhysNone {
		// Slow-lane entries waiting on this dying register depend on
		// d, so the walk has already squashed them: the trigger drops
		// them now. A live one would wake and re-evaluate its sources
		// on re-insertion, so no trigger is lost.
		if c.sliq != nil {
			c.sliq.TriggerReady(d.DestPhys, c.now)
		}
		if unwindRename {
			c.rt.Unwind(d.Inst.Dest, d.DestPhys, d.PrevPhys)
		}
		c.regReady[d.DestPhys] = false
		c.longTaint[d.DestPhys] = false
		c.consumers[d.DestPhys] = c.consumers[d.DestPhys][:0]
		if c.producer[d.DestPhys] == d {
			c.producer[d.DestPhys] = nil
		}
	}

	c.inflight--
	if !d.WrongPath {
		c.replayed++
	}
	c.pool.release(d)
}
