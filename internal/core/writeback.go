package core

import (
	"repro/internal/isa"
	"repro/internal/rename"
)

// writebackStage retires completion events whose time has come: values
// are written to the register file, the register's waiters are woken
// (issue-queue sources, LSQ stores and SLIQ triggers), memory entries
// are marked executed, checkpoint pending counters are decremented, and
// mispredicted branches trigger recovery.
func (c *CPU) writebackStage() {
	if c.vt != nil {
		c.drainDeferredBinds()
	}
	for _, d := range c.completions.takeDue(c.now) {
		if d.released() {
			// An older event in this batch squashed it mid-drain; the
			// record is not yet reused (only dispatch acquires, later
			// in the cycle).
			continue
		}
		c.completeInst(d)
	}
}

// completeInst applies the virtual-register admission gate and then
// finishes the instruction. A value that cannot bind a physical register
// is deferred until a release (the Figure 14 pressure mechanism).
func (c *CPU) completeInst(d *DynInst) {
	if d.Done {
		panic("core: double completion of " + d.String())
	}
	if c.vt != nil && d.DestPhys != rename.PhysNone {
		// Release the superseded value first: early recycling means the
		// new value can take the register its redefinition frees (and
		// releasing after a failed bind would deadlock a full file).
		c.vregReleasePrev(d)
		if !c.bindVreg(d) {
			c.deferredBind = append(c.deferredBind, consumerRef{d: d, seq: d.Seq})
			return
		}
	}
	c.finishCompletion(d)
}

// bindVreg binds the value d produces to a physical register, or
// reports false when the register file is full and the writeback must
// wait. A fused value takes no register, so it always binds.
func (c *CPU) bindVreg(d *DynInst) bool {
	r := &c.regs[d.DestPhys]
	if !c.vt.TryBind(r.vfused) {
		return false
	}
	r.vbound = !r.vfused
	return true
}

// finishCompletion performs the writeback proper.
func (c *CPU) finishCompletion(d *DynInst) {
	d.Done = true
	d.DoneCycle = c.now

	if d.DestPhys != rename.PhysNone {
		r := &c.regs[d.DestPhys]
		r.ready, r.longTaint = true, false
		for _, ref := range r.waiters {
			// Stale refs beyond the truncation point are harmless: the
			// records are pool-owned (never garbage collected), so the
			// slots are not zeroed — that skips a write barrier per
			// wakeup on the hottest writeback loop.
			cons := ref.d
			if cons.Seq != ref.seq {
				// The record was recycled: the registering instruction
				// is gone (squashed and released).
				continue
			}
			switch {
			case cons.Inst.Op == isa.Store:
				// LSQ-resident: the store executes once its last
				// source arrives.
				if !cons.Issued {
					cons.pendingSrcs--
					if cons.pendingSrcs == 0 {
						cons.Issued = true
						cons.DoneCycle = c.now + 1
						c.completions.push(cons)
					}
				}
			case cons.iqe.Resident():
				c.iqFor(cons.Inst.Op).Wake(&cons.iqe)
			case cons.inSLIQ && cons.sliqTrigger == d.DestPhys:
				// The slow-lane resident's trigger: its wake starts, once
				// (a resident reading its trigger as both sources is
				// listed twice).
				cons.sliqTrigger = rename.PhysNone
				c.sliq.Wake(cons.Seq, cons, c.now)
			}
		}
		r.waiters = r.waiters[:0]
	}
	if d.lsqe != nil {
		c.lq.MarkExecuted(d.lsqe, c.forwardWake)
	}
	if d.ckpt != nil {
		d.ckpt.Complete()
	}

	if d.Inst.Op == isa.Branch && d.Mispredicted && c.divergedAt == d {
		c.resolveMispredict(d)
	}
	// Safe even if the recovery above squashed-and-released d: release
	// poisons only Seq, and no record is reused before this cycle's
	// dispatch stage (see DynInst).
	if d.ExceptAt && !d.released() {
		d.ExceptAt = false
		c.policy.RaiseException(d)
	}
}

// drainDeferredBinds retries writebacks stalled on physical-register
// exhaustion, in completion order, while registers are available. Each
// waiting writeback released its superseded value when it first
// completed (see completeInst).
func (c *CPU) drainDeferredBinds() {
	n := 0
	for ; n < len(c.deferredBind); n++ {
		ref := c.deferredBind[n]
		d := ref.d
		if d.Seq != ref.seq {
			// Squashed (and possibly recycled since): the squash already
			// returned its tag.
			continue
		}
		if !c.bindVreg(d) {
			break
		}
		c.finishCompletion(d)
	}
	if n > 0 {
		c.deferredBind = append(c.deferredBind[:0], c.deferredBind[n:]...)
	}
}

// vregReleasePrev releases the value d redefines, per the
// ephemeral-register early-release rule: the replacement value now
// exists (or is being written), so the old one's register is recycled.
// It runs once, when d completes. The superseded value is named by
// d.PrevPhys, which stays allocated until d's checkpoint window commits,
// after d completed; so its producer, readiness and bind state are still
// that value's.
func (c *CPU) vregReleasePrev(d *DynInst) {
	p := d.PrevPhys
	switch {
	case p == rename.PhysNone:
		// No previous mapping: nothing to release.
	case c.regs[p].producer == nil:
		// The previous value was architectural initial state; release
		// it exactly once even across rollback replays.
		if !c.archReleased[d.Inst.Dest] {
			c.archReleased[d.Inst.Dest] = true
			c.vt.Release()
		}
	case c.regs[p].ready:
		if c.regs[p].vbound {
			c.regs[p].vbound = false
			c.vt.Release()
		}
	default:
		// The previous producer has not completed yet; fuse its bind
		// with the release so it never consumes a register.
		c.regs[p].vfused = true
	}
}
