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
// from every other structure, and finally releases the record to the
// free list (its Seq poisoned, its Squashed flag readable until dispatch
// reuses it — see DynInst).
func (c *CPU) squashInst(d *DynInst, unwindRename bool) {
	d.Squashed = true

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
	// Unschedule any pending completion so the event wheel never holds
	// a released record.
	c.completions.remove(d)
	if d.lsqe != nil {
		c.lq.Squash(d.lsqe)
		d.lsqe = nil
	}

	// Policy-side accounting (checkpoint pending/instruction counters).
	c.policy.Squashed(d)

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
		// Wake any slow-lane instructions waiting on this dying
		// register so no trigger is lost; they re-evaluate their real
		// source readiness on re-insertion.
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
