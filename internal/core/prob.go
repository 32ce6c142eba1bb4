package core

import (
	"repro/internal/isa"
	"repro/internal/rename"
	"repro/internal/stats"
)

// extractPseudoROB retires the oldest pseudo-ROB entry to make room for
// a dispatching instruction. This is the paper's delayed criticality
// decision (section 3): only now — when the instruction is the oldest in
// the FIFO — is it classified, and not-yet-issued instructions that
// transitively depend on an L2-missing load are moved from the precious
// issue queue into the SLIQ. A record whose window already committed
// leaves the window once classified (see retireWindow).
func (p *checkpointPolicy) extractPseudoROB() {
	c := p.c
	d := c.window.At(p.extracted)
	p.classifyExtract(d)
	if p.retired == 0 {
		p.extracted++
		return
	}
	c.window.PopFront()
	p.retired--
	c.pool.release(d)
}

// classifyExtract buckets the retired entry into Figure 12's classes and
// maintains the logical-register dependence mask.
func (p *checkpointPolicy) classifyExtract(d *DynInst) {
	op := d.Inst.Op
	switch {
	case op == isa.Store:
		p.c.retire[stats.RetireStore]++
		// Stores have no destination: the mask is unaffected.

	case op == isa.Load:
		switch {
		case d.Done:
			p.c.retire[stats.RetireFinishedLoad]++
			p.maskRedefine(d)
		case d.Issued && d.MissedL2:
			// The problem makers: seed the dependence mask with the
			// load's destination.
			p.c.retire[stats.RetireLongLatLoad]++
			p.maskSeed(d)
		case d.Issued:
			// In flight but hit in L1/L2 — the paper counts these
			// with the finished loads.
			p.c.retire[stats.RetireFinishedLoad]++
			p.maskRedefine(d)
		default:
			// Not yet issued: per the paper's t0 example, a load that
			// "has not yet finished its execution" at extraction is
			// treated as long latency — its destination seeds the
			// mask so consumers move to the SLIQ rather than clog the
			// issue queue. The load itself moves too if its address
			// hangs off another long-latency chain.
			dep, root, _ := p.maskDependence(d)
			if dep {
				if p.moveToSLIQ(d, root) {
					p.c.retire[stats.RetireMoved]++
				} else {
					p.c.retire[stats.RetireShortLat]++
				}
			} else {
				p.c.retire[stats.RetireShortLat]++
			}
			p.maskSeed(d)
		}

	default:
		switch {
		case d.Done || d.Issued:
			p.c.retire[stats.RetireFinished]++
			p.maskRedefine(d)
		default:
			p.classifyWaiting(d)
		}
	}
}

// classifyWaiting handles a not-yet-issued instruction at extraction:
// mask-dependent ones move to the SLIQ (freeing their issue-queue entry),
// independent ones stay and are expected to issue shortly.
func (p *checkpointPolicy) classifyWaiting(d *DynInst) {
	dep, root, rootSeq := p.maskDependence(d)
	if dep {
		p.maskPropagate(d, root, rootSeq)
		if p.moveToSLIQ(d, root) {
			p.c.retire[stats.RetireMoved]++
			return
		}
		// SLIQ full or absent: the instruction keeps its issue-queue
		// entry; account it as short-latency residue.
		p.c.retire[stats.RetireShortLat]++
		return
	}
	p.c.retire[stats.RetireShortLat]++
	p.maskRedefine(d)
}

// maskDependence reports whether any source of d is covered by the
// dependence mask, returning the physical register (and owning dynamic
// instruction sequence) of the long-latency load at the root of the
// chain.
func (p *checkpointPolicy) maskDependence(d *DynInst) (bool, rename.PhysReg, uint64) {
	for _, s := range [2]isa.Reg{d.Inst.Src1, d.Inst.Src2} {
		if s == isa.RegNone {
			continue
		}
		m := p.mask[s]
		if !p.triggerLive(m.root, m.seq) {
			// Not in the mask, or the root already produced its value
			// (or was squashed): the mask bit is stale and will be
			// cleared by the next redefinition.
			continue
		}
		return true, m.root, m.seq
	}
	return false, rename.PhysNone, 0
}

// triggerLive reports whether a SLIQ trigger register is still awaiting
// a write from the producer recorded in the mask — the condition under
// which waiting on it is guaranteed to end with a TriggerReady. The
// sequence check rejects registers freed and reallocated since the mask
// bit was set (and, with recycled records, producers whose slot was
// reused by a younger instruction).
func (p *checkpointPolicy) triggerLive(root rename.PhysReg, rootSeq uint64) bool {
	c := p.c
	if root == rename.PhysNone || c.regReady[root] {
		return false
	}
	pr := c.producer[root]
	return pr != nil && !pr.Squashed && pr.Seq == rootSeq
}

// maskSeed marks a long-latency load's destination in the mask.
func (p *checkpointPolicy) maskSeed(d *DynInst) {
	p.mask[d.Inst.Dest] = maskEntry{d.DestPhys, d.Seq}
}

// maskPropagate extends the mask to a dependent instruction's
// destination, carrying the root's identity.
func (p *checkpointPolicy) maskPropagate(d *DynInst, root rename.PhysReg, rootSeq uint64) {
	if d.Inst.Dest == isa.RegNone {
		return
	}
	p.mask[d.Inst.Dest] = maskEntry{root, rootSeq}
}

// maskRedefine clears the mask for d's destination ("registers get
// cleared when non-dependent instructions redefine those registers").
func (p *checkpointPolicy) maskRedefine(d *DynInst) {
	if d.Inst.Dest == isa.RegNone {
		return
	}
	p.mask[d.Inst.Dest] = maskEntry{root: rename.PhysNone}
}

// moveToSLIQ transfers a waiting instruction from its issue queue to the
// slow lane. It returns false when no SLIQ is configured, it is full, or
// the trigger register already produced its value.
func (p *checkpointPolicy) moveToSLIQ(d *DynInst, root rename.PhysReg) bool {
	c := p.c
	if c.sliq == nil || !d.iqe.Resident() {
		return false
	}
	if d.iqe.Pending() == 0 {
		// Already ready to issue; moving it would only delay it.
		return false
	}
	if root == rename.PhysNone || c.regReady[root] {
		return false
	}
	if !c.sliq.Insert(d.Seq, root, d) {
		return false
	}
	c.iqFor(d.Inst.Op).Remove(&d.iqe)
	d.inSLIQ = true
	return true
}
