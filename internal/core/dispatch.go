package core

import (
	"repro/internal/isa"
	"repro/internal/queue"
	"repro/internal/rename"
)

// dispatchStage models the front end: SLIQ re-insertion, instruction
// fetch (correct path or wrong path), renaming, checkpoint taking,
// pseudo-ROB insertion/extraction and dispatch into the issue queues.
func (c *CPU) dispatchStage() {
	if c.sliq != nil {
		c.drainSLIQ()
	}
	if c.now < c.fetchResumeAt {
		return
	}

	c.resourceStalled = false
	// A cycle that admitted nothing hands the policy its
	// deadlock-avoidance window (pressure extraction, emergency
	// checkpoints — see checkpointPolicy.DispatchStalled). An explicit
	// call at each exit keeps the per-cycle loop defer-free.
	if c.dispatchInsts() == 0 {
		c.policy.DispatchStalled()
	}
}

// dispatchInsts fetches and dispatches up to FetchWidth instructions,
// returning how many were admitted.
func (c *CPU) dispatchInsts() int {
	dispatched := 0
	for n := 0; n < c.cfg.FetchWidth; n++ {
		var inst isa.Inst
		var pos int64
		wrongPath := c.divergedAt != nil
		if wrongPath {
			inst = c.nextWrongPathInst()
			pos = -1
		} else {
			if c.fetchPos >= c.tr.Len() {
				return dispatched
			}
			inst = c.tr.At(c.fetchPos)
			pos = c.fetchPos
			if n == 0 {
				// Model the instruction fetch: an IL1 miss stalls
				// the front end until the line arrives.
				ready := c.hier.FetchLatency(c.now, inst.PC)
				if ready > c.now+int64(c.cfg.IL1.LatencyCycles) {
					c.fetchResumeAt = ready
					return dispatched
				}
			}
		}
		if !c.tryDispatch(inst, pos, wrongPath) {
			return dispatched
		}
		dispatched++
		if !wrongPath {
			// On a mispredicted branch, divergedAt is now set and the
			// next loop iteration fetches wrong-path instructions.
			c.fetchPos++
		}
	}
	return dispatched
}

// tryDispatch checks every structural resource the instruction needs
// and, if all are available, renames and dispatches it. It returns
// false when the front end must stall this cycle.
func (c *CPU) tryDispatch(inst isa.Inst, pos int64, wrongPath bool) bool {
	// The commit policy goes first: checkpoint-family policies take any
	// required checkpoint before the instruction, so the window closes
	// even if the instruction then stalls on another resource
	// (otherwise an open window could never commit and the stalled
	// resource would never recycle); the ROB baseline gates on buffer
	// space here.
	if !c.policy.Admit(inst, pos) {
		return false
	}
	// A destination needs a rename register and, with virtual
	// registers, a tag; both are taken below, once every check passed.
	if inst.Op.HasDest() && ((c.vt != nil && c.vt.TagsFull()) || c.rt.FreeCount() == 0) {
		c.resourceStalled = true
		return false
	}
	// Stores live in the LSQ, not the general-purpose queues (paper
	// section 2, "Committing Store Instructions").
	var iq *queue.IQ[*DynInst]
	if inst.Op != isa.Store {
		iq = c.iqFor(inst.Op)
		if iq.Full() {
			return false
		}
	}
	if inst.Op.IsMem() && c.lq.Full() {
		c.resourceStalled = true
		return false
	}
	// Every shared resource is available: let the policy free its own
	// space (pseudo-ROB extraction) before the record is built.
	c.policy.MakeRoom()

	// All resources available: build and dispatch.
	d := c.pool.acquire()
	d.Seq = c.nextSeq
	d.Pos = pos
	d.Inst = inst
	d.WrongPath = wrongPath
	c.nextSeq++
	c.fetched++

	// Rename sources before the destination (an instruction may read
	// the register it overwrites).
	if inst.Src1 != isa.RegNone {
		d.SrcPhys[0] = c.rt.Lookup(inst.Src1)
		d.NumSrcs = 1
	}
	if inst.Src2 != isa.RegNone {
		d.SrcPhys[d.NumSrcs] = c.rt.Lookup(inst.Src2)
		d.NumSrcs++
	}
	if inst.Op.HasDest() {
		var ok bool
		d.DestPhys, d.PrevPhys, ok = c.rt.Allocate(inst.Dest)
		if !ok {
			panic("core: rename failed after FreeCount check")
		}
		if c.vt != nil && !c.vt.TryRename() {
			panic("core: virtual tag rename failed after TagsFull check")
		}
		r := &c.regs[d.DestPhys]
		*r = physReg{producer: d, waiters: r.waiters}
	}

	// Source readiness and consumer registration.
	pending := 0
	for i := 0; i < d.NumSrcs; i++ {
		r := &c.regs[d.SrcPhys[i]]
		if !r.ready {
			pending++
			r.waiters = append(r.waiters, consumerRef{d: d, seq: d.Seq})
		}
	}
	if c.occ != nil {
		c.classifyLive(d, pending)
	}

	if inst.Op == isa.Store {
		d.pendingSrcs = pending
		if pending == 0 {
			// Address and data already available: the store executes
			// (writes its LSQ entry) immediately.
			d.Issued = true
			d.DoneCycle = c.now + 1
			c.completions.push(d)
		}
	} else {
		if !iq.Insert(&d.iqe, d.Seq, pending) {
			panic("core: issue queue full after Full() check")
		}
	}
	if inst.Op.IsMem() {
		d.lsqe = c.lq.Insert(d.Seq, inst.Op, inst.Addr)
		if d.lsqe == nil {
			panic("core: LSQ full after Full() check")
		}
	}

	// Branch prediction happens at fetch; history and counters are
	// trained immediately.
	// A branch whose misprediction already caused a checkpoint rollback
	// is known-resolved on its replay: the recovery state carries its
	// direction, which also guarantees forward progress when gshare
	// aliasing would otherwise ping-pong two opposite-biased branches
	// inside one window (a livelock the stress suite exposed).
	if inst.Op == isa.Branch && !wrongPath {
		mispredict := false
		redirect := inst.PC + 4
		if !c.cfg.PerfectBranchPrediction && !c.branchResolved(pos) {
			if c.btb != nil {
				// Program-backed trace: the direction predictor alone
				// cannot redirect fetch — a taken prediction is only
				// effective when the BTB supplies a target, and a hit
				// with a stale target is a misfetch even when the
				// direction was right.
				dirPred := c.pred.Predict(inst.PC)
				target, hit := c.btb.Lookup(inst.PC)
				predTaken := dirPred && hit
				switch {
				case predTaken != inst.Taken:
					mispredict = true
					if predTaken {
						redirect = target
					}
				case inst.Taken && target != inst.Target:
					c.btb.CountBadTarget()
					mispredict = true
					redirect = target
				}
			} else {
				mispredict = c.pred.Predict(inst.PC) != inst.Taken
			}
		}
		c.pred.Update(inst.PC, inst.Taken)
		if c.btb != nil && inst.Taken {
			c.btb.Install(inst.PC, inst.Target)
		}
		if mispredict {
			d.Mispredicted = true
			c.divergedAt = d
			if c.code != nil {
				c.setWrongPathStart(redirect)
			}
		}
	}

	// Enter the finished record into the window and hand it to the
	// policy (checkpoint association, plus the exception protocol's
	// first pass where the policy supports it). This runs after branch
	// resolution so policies see d.Mispredicted — the adaptive taking
	// rule trains its confidence estimator here.
	c.window.PushBack(d)
	c.policy.Dispatched(d)

	c.dispatched++
	c.inflight++
	return true
}

// setWrongPathStart records where a mispredicted fetch diverged to in
// the program image: the static index of the (wrong) redirect target
// and the wpCounter value at divergence. nextWrongPathInst is then a
// pure function of wpCounter, which keeps the clock skip's footprint
// replication exact. A redirect outside the text (a stale BTB target,
// or falling through past the last instruction) wraps to the image
// start — wrong-path fetch only needs a deterministic stream, not a
// meaningful one.
func (c *CPU) setWrongPathStart(pc uint64) {
	idx, ok := c.code.IndexOf(pc)
	if !ok {
		idx = 0
	}
	c.wpStart = idx
	c.wpBase = c.wpCounter
}

// nextWrongPathInst fetches an instruction for the wrong path after a
// mispredicted branch. Program-backed traces fetch the real static
// instructions at the mispredicted target (side-effecting classes are
// neutralised to Nops in the image; wrong-path loads get a synthetic
// address near recent traffic, as the core cannot know what a wrong
// path would really compute). Synthetic traces synthesise a
// deterministic mix of ALU, FP and load operations. Either way the
// stream consumes rename, queue, functional-unit and memory bandwidth
// until the branch resolves.
func (c *CPU) nextWrongPathInst() isa.Inst {
	k := c.wpCounter
	c.wpCounter++
	if c.code != nil {
		idx := (c.wpStart + int((k-c.wpBase)%uint64(c.code.Len()))) % c.code.Len()
		in := c.code.At(idx)
		if in.Op == isa.Load {
			in.Addr = c.lastLoadAddr + 64*(1+k%32)
		}
		return in
	}
	// Wrong-path instructions live in their own PC region.
	pc := uint64(0xF0000000) + (k%64)*4
	switch k % 8 {
	case 0:
		// A wrong-path load polluting lines near recent traffic.
		addr := c.lastLoadAddr + 64*(1+k%32)
		return isa.Inst{Op: isa.Load, Dest: isa.IntReg(int(k % 4)), Src1: isa.IntReg(4), Addr: addr, PC: pc}
	case 1, 2, 3:
		return isa.Inst{Op: isa.FPAlu, Dest: isa.FPReg(int(k % 8)), Src1: isa.FPReg(int((k + 1) % 8)), Src2: isa.RegNone, PC: pc}
	case 4:
		return isa.Inst{Op: isa.IntMul, Dest: isa.IntReg(int(k%4) + 4), Src1: isa.IntReg(int(k % 4)), Src2: isa.RegNone, PC: pc}
	default:
		return isa.Inst{Op: isa.IntAlu, Dest: isa.IntReg(int(k % 8)), Src1: isa.IntReg(int((k + 3) % 8)), Src2: isa.RegNone, PC: pc}
	}
}

// drainSLIQ re-inserts woken slow-lane instructions into their issue
// queues, oldest first, bounded by the wake width. When the target queue
// is full, a fully-ready instruction may instead issue directly from the
// pump (bounded by the same width and functional-unit availability) —
// the bypass that keeps the two-level queue hierarchy deadlock-free when
// the small queues are saturated with dependants of slow-lane residents.
func (c *CPU) drainSLIQ() {
	c.sliq.Drain(c.now, c.sliqAccept)
}

// acceptFromSLIQ is the SLIQ drain callback (bound once in New); the
// SLIQ hands it live records only.
func (c *CPU) acceptFromSLIQ(seq uint64, d *DynInst) bool {
	// Re-compute source availability, as the paper requires.
	pending := 0
	for i := 0; i < d.NumSrcs; i++ {
		if !c.regs[d.SrcPhys[i]].ready {
			pending++
		}
	}
	iq := c.iqFor(d.Inst.Op)
	if !iq.Full() {
		d.inSLIQ = false
		if !iq.Insert(&d.iqe, seq, pending) {
			panic("core: issue queue full after Full() check")
		}
		return true
	}
	if pending > 0 {
		return false // must wait in order for queue space
	}
	// Bypass: issue directly from the wake pump.
	if d.Inst.Op == isa.Load && c.portsUsed >= c.cfg.MemoryPorts {
		return false
	}
	aluDone, ok := c.fus.TryIssue(d.Inst.Op, c.now)
	if !ok {
		return false
	}
	d.inSLIQ = false
	c.startExecution(d, aluDone)
	return true
}

// classifyLive makes Figure 7's live-instruction split for a dispatched
// instruction d with pending unready sources (possibly none): its
// destination inherits the blocked-long taint of any unready source,
// and an FP instruction that waits joins the live counters as
// blocked-long or blocked-short. Only the occupancy distribution reads
// the split, so only a CPU that collects it pays for it (see
// propagateLongTaint).
func (c *CPU) classifyLive(d *DynInst, pending int) {
	long := false
	for i := 0; i < d.NumSrcs; i++ {
		if r := &c.regs[d.SrcPhys[i]]; !r.ready && r.longTaint {
			long = true
		}
	}
	if long && d.DestPhys != rename.PhysNone {
		c.regs[d.DestPhys].longTaint = true
	}
	if d.Inst.Op == isa.FPAlu && pending > 0 {
		d.LiveLong = long
		d.countedLive = true
		if long {
			c.liveFPLong++
		} else {
			c.liveFPShort++
		}
	}
}
