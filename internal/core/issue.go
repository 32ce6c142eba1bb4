package core

import (
	"repro/internal/isa"
	"repro/internal/lsq"
	"repro/internal/queue"
	"repro/internal/rename"
)

// issueStage selects up to IssueWidth ready instructions across the two
// issue queues, oldest first, and starts them on functional units.
// Loads are additionally bounded by the per-cycle data-cache port count
// (Table 1's "Memory ports").
func (c *CPU) issueStage() {
	budget := c.cfg.IssueWidth
	failures := 0
	maxFailures := 2 * c.cfg.IssueWidth
	retry := c.issueRetry[:0]

	for budget > 0 && failures < maxFailures {
		e := c.popOldestReady()
		if e == nil {
			break
		}
		d := e.Payload
		if d.Inst.Op == isa.Load && c.portsUsed >= c.cfg.MemoryPorts {
			retry = append(retry, e)
			failures++
			continue
		}
		aluDone, ok := c.fus.TryIssue(d.Inst.Op, c.now)
		if !ok {
			retry = append(retry, e)
			failures++
			continue
		}
		c.startExecution(d, aluDone)
		budget--
	}
	for i, e := range retry {
		c.iqFor(e.Payload.Inst.Op).Unissue(e)
		retry[i] = nil
	}
	c.issueRetry = retry[:0]
}

// propagateLongTaint marks a register as transitively dependent on an
// L2-missing load and reclassifies already-dispatched waiting consumers
// from blocked-short to blocked-long (Figure 7's split, which only a CPU
// collecting occupancy makes). Dispatch-time classification
// (classifyLive) alone misses consumers dispatched in the window before
// the load's miss is discovered. The wait list also holds SLIQ trigger
// waits; those add no taint, since a resident's chain to its trigger
// runs through source waits this recursion reaches anyway.
func (c *CPU) propagateLongTaint(p rename.PhysReg) {
	r := &c.regs[p]
	if r.longTaint {
		return
	}
	r.longTaint = true
	for _, ref := range r.waiters {
		cons := ref.d
		if cons.Seq != ref.seq || cons.Done || cons.Issued {
			continue
		}
		if cons.countedLive && !cons.LiveLong {
			cons.LiveLong = true
			c.liveFPLong++
			c.liveFPShort--
		}
		if cons.DestPhys != rename.PhysNone {
			c.propagateLongTaint(cons.DestPhys)
		}
	}
}

// popOldestReady takes the globally oldest ready entry across both issue
// queues out of its queue.
func (c *CPU) popOldestReady() *queue.IQEntry[*DynInst] {
	ei, ef := c.intQ.PeekReady(), c.fpQ.PeekReady()
	switch {
	case ei == nil && ef == nil:
		return nil
	case ef == nil || (ei != nil && ei.Seq < ef.Seq):
		c.intQ.Take(ei)
		return ei
	default:
		c.fpQ.Take(ef)
		return ef
	}
}

// startExecution marks d issued and schedules its completion. aluDone is
// the cycle the functional unit produces its result (address generation
// for memory operations).
func (c *CPU) startExecution(d *DynInst, aluDone int64) {
	d.Issued = true
	c.issued++
	if d.countedLive {
		// Leaving the issue queue ends the instruction's "live" phase
		// (Figure 7 counts instructions yet to be issued).
		d.countedLive = false
		if d.LiveLong {
			c.liveFPLong--
		} else {
			c.liveFPShort--
		}
	}

	switch d.Inst.Op {
	case isa.Load:
		c.portsUsed++
		c.lastLoadAddr = d.Inst.Addr
		res, store := c.lq.LookupForward(d.Seq, d.Inst.Addr)
		switch res {
		case lsq.ForwardReady:
			d.DoneCycle = aluDone + int64(c.cfg.DL1.LatencyCycles)
			c.completions.push(d)
		case lsq.ForwardWait:
			// The load waits for the blocking store's data (see
			// wakeForwardedLoad).
			c.lq.AddWaiter(store, d.Seq, d)
		case lsq.NoConflict:
			res := c.hier.Load(aluDone, d.Inst.Addr)
			d.DoneCycle = res.Done
			if res.MissedL2 {
				d.MissedL2 = true
				if d.DestPhys >= 0 && c.occ != nil {
					c.propagateLongTaint(d.DestPhys)
				}
			}
			c.completions.push(d)
		}
	default:
		d.DoneCycle = aluDone
		c.completions.push(d)
	}
}

// wakeForwardedLoad is the LSQ's forward-wake callback (bound once in
// New): the store d waited on has executed, so d completes a cycle later
// (forwarding bypass). The waiter outlives a squashed load, so it
// re-checks identity by Seq.
func (c *CPU) wakeForwardedLoad(seq uint64, d *DynInst) {
	if d.Seq != seq {
		return
	}
	d.DoneCycle = c.now + 1
	c.completions.push(d)
}
