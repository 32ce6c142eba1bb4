package core

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/queue"
	"repro/internal/rename"
	"repro/internal/stats"
)

// checkpointPolicy is the paper's out-of-order commit: no ROB; a small
// checkpoint table commits whole instruction windows at once, a
// pseudo-ROB FIFO delays the long-latency classification (section 3),
// and the SLIQ slow lane (owned by the CPU, built here) keeps the small
// issue queues useful. It serves both checkpoint-family modes, which
// differ only in the taking rule's branch clause (see shouldTake).
//
// The pseudo-ROB is the window's youngest stretch, behind an extraction
// cursor. A record leaves the window once it has both committed and
// been extracted, so the window's front holds either retired records
// (committed, not yet extracted) or extracted ones (not yet committed),
// never both: one of the two counts is always zero.
type checkpointPolicy struct {
	c                  *CPU
	ckpts              *rename.CheckpointTable
	retired, extracted int

	// mask is the SLIQ dependence mask over logical registers (paper
	// section 3), see maskEntry.
	mask [isa.NumLogical]maskEntry

	// The adaptive rule's confidence threshold and its counters.
	threshold        uint8
	lowConfBranches  uint64 // branches dispatched below the threshold
	highConfBranches uint64
	branchCkpts      uint64 // checkpoints placed immediately before a branch
}

// maskEntry is one logical register's dependence-mask state: root is
// the destination of the long-latency load at the root of its chain
// (PhysNone: not in the mask), and seq generation-checks it, so a
// freed-and-reallocated register cannot satisfy a stale mask bit.
type maskEntry struct {
	root rename.PhysReg
	seq  uint64
}

// newCheckpointPolicy builds the checkpoint-commit machinery, including
// the CPU-owned SLIQ (it is threaded through the shared wakeup paths).
func newCheckpointPolicy(c *CPU) *checkpointPolicy {
	p := &checkpointPolicy{
		c:         c,
		ckpts:     rename.NewCheckpointTable(c.cfg.Checkpoints, c.rt),
		threshold: uint8(c.cfg.AdaptiveConfidenceThreshold),
	}
	if c.cfg.SLIQEntries > 0 {
		c.sliq = queue.NewSLIQ(c.cfg.SLIQEntries, c.cfg.SLIQWakeDelay,
			c.cfg.SLIQWakeWidth, holdsSeq)
	}
	p.clearDepMasks()
	return p
}

// shouldTake is the checkpoint-taking rule for the instruction about to
// dispatch. An empty table always takes ("there must always exist a
// checkpoint for our mechanism to work"), and so does the paper's
// safety rule: after CheckpointMaxInterval instructions, or at a store
// after CheckpointMaxStores stores. At a branch the paper takes after
// CheckpointBranchInterval instructions. The adaptive mode (c.conf
// non-nil) replaces that clause, one of the strategies the paper leaves
// to future work: it takes before each branch whose confidence counter
// is below the threshold, so the likeliest rollback targets become the
// cheapest. Its non-empty-window guard makes a stalled retry converge,
// as Admit may re-evaluate the rule for the same instruction.
func (p *checkpointPolicy) shouldTake(inst isa.Inst) bool {
	cfg := &p.c.cfg
	y := p.ckpts.Youngest()
	switch {
	case y == nil || y.Insts >= cfg.CheckpointMaxInterval:
		return true
	case inst.Op == isa.Store:
		return y.Stores >= cfg.CheckpointMaxStores
	case inst.Op != isa.Branch:
		return false
	case p.c.conf != nil:
		return y.Insts > 0 && p.c.conf.Value(inst.PC) < p.threshold
	}
	return y.Insts >= cfg.CheckpointBranchInterval
}

// Admit takes any required checkpoint before the instruction; doing it
// first means the window closes even if the instruction then stalls on
// another resource (otherwise an open window could never commit and the
// stalled resource would never recycle). The exception protocol's
// second pass (phase 2) also lands here: the excepting instruction is
// precisely checkpointed, then the exception delivers.
func (p *checkpointPolicy) Admit(inst isa.Inst, pos int64) bool {
	c := p.c
	need := p.shouldTake(inst) || c.exceptPhase(pos) == 2
	if !need {
		return true
	}
	if p.ckpts.Full() {
		c.ckptStallCycles++
		return false
	}
	p.takeCheckpoint(pos)
	if c.exceptPhase(pos) == 2 {
		c.exceptArm[pos] = 0
		c.exceptions++
	}
	return true
}

// takeCheckpoint snapshots the machine before the instruction about to
// dispatch (whose sequence number will be nextSeq and trace position
// pos; pos may be the current fetch position for emergency checkpoints).
func (p *checkpointPolicy) takeCheckpoint(pos int64) {
	c := p.c
	// Taking a checkpoint moves no CPU-visible counter, yet it changes
	// what the next cycle can do; the clock skip's quiescence probe
	// watches this to tell two outwardly identical stall cycles apart.
	c.policyActivity++
	if pos < 0 {
		// Wrong-path instruction: record the correct-path resume point.
		pos = c.fetchPos
	}
	if e := p.ckpts.Take(c.nextSeq, pos, c.pred.HistorySnapshot()); e == nil {
		panic("core: checkpoint table full after Full() check")
	}
}

// MakeRoom extracts the oldest pseudo-ROB entry when the FIFO is full;
// this is where the paper's delayed long-latency classification happens
// (section 3).
func (p *checkpointPolicy) MakeRoom() {
	if p.probLen() == p.c.cfg.PseudoROBEntries {
		p.extractPseudoROB()
	}
}

// probLen is the pseudo-ROB's occupancy: the window behind the
// extraction cursor.
func (p *checkpointPolicy) probLen() int { return p.c.window.Len() - p.extracted }

// Dispatched associates the instruction, which dispatch has just pushed
// into the window's pseudo-ROB stretch, with the youngest checkpoint.
// The exception protocol's first pass arms here: the instruction raises
// when it completes. The adaptive rule's estimator trains on correct-path
// branches: a correct prediction raises the counter, a misprediction
// resets it. Replayed rollback-resolved branches (knownBranch) cannot
// mispredict and train as correct: the recovery hardware knows them.
func (p *checkpointPolicy) Dispatched(d *DynInst) {
	c := p.c
	d.ckpt = p.ckpts.Youngest()
	d.ckpt.Associate(d.Inst.Op)
	if p.probLen() > c.cfg.PseudoROBEntries {
		panic("core: pseudo-ROB full after extraction")
	}
	if c.exceptPhase(d.Pos) == 1 {
		d.ExceptAt = true
	}
	if c.conf == nil || d.Inst.Op != isa.Branch || d.WrongPath {
		return
	}
	if c.conf.Value(d.Inst.PC) < p.threshold {
		p.lowConfBranches++
	} else {
		p.highConfBranches++
	}
	if d.ckpt.StartSeq == d.Seq {
		p.branchCkpts++
	}
	c.conf.Update(d.Inst.PC, !d.Mispredicted)
}

// Commit retires every committable checkpoint: the oldest window whose
// instructions have all finished commits as a unit — its deferred
// register frees are applied and its stores drain to memory. This is
// the paper's out-of-order commit: instructions "commit" (their
// resources are released) without any per-instruction in-order walk.
func (p *checkpointPolicy) Commit() {
	c := p.c
	for p.ckpts.CanCommit() {
		p.retireWindow(p.ckpts.Commit())
		c.lastCommitCycle = c.now
	}
	if p.finalWindowDone() {
		p.retireWindow(c.nextSeq)
		c.lastCommitCycle = c.now
	}
}

// finalWindowDone reports the end-of-program drain: the final window
// has no younger checkpoint to close it, so it retires once every
// instruction has finished.
func (p *checkpointPolicy) finalWindowDone() bool {
	c := p.c
	return c.fetchExhausted() && p.ckpts.Len() == 1 &&
		p.ckpts.Oldest().Pending == 0 && c.window.Len() > p.retired
}

// retireWindow commits the window's instructions with Seq < endSeq,
// oldest first, so their stores drain to memory in program order. A
// record still in the pseudo-ROB stays in the window until extraction
// classifies it for Figure 12; an extracted one leaves now.
func (p *checkpointPolicy) retireWindow(endSeq uint64) {
	c := p.c
	for p.retired < c.window.Len() {
		d := c.window.At(p.retired)
		if d.Seq >= endSeq {
			break
		}
		c.commitInst(d)
		if p.extracted == 0 {
			p.retired++
			continue
		}
		c.window.PopFront()
		p.extracted--
		c.pool.release(d)
	}
}

// DispatchStalled is the deadlock-avoidance window of a cycle that
// dispatched nothing.
func (p *checkpointPolicy) DispatchStalled() {
	c := p.c
	// Pressure-driven extraction: when nothing could dispatch because an
	// issue queue is full, retire pseudo-ROB entries anyway so
	// mask-dependent occupants move to the SLIQ and free queue space.
	// Without this the two-level hierarchy throttles itself: moves
	// happen at extraction, extraction normally happens at dispatch,
	// dispatch needs queue space.
	if c.intQ.Full() || c.fpQ.Full() {
		for i := 0; i < c.cfg.FetchWidth && p.probLen() > 0; i++ {
			p.extractPseudoROB()
		}
	}
	// Deadlock avoidance: a stall on registers, tags or LSQ space can
	// only clear when a window commits — and the open window cannot
	// commit until a younger checkpoint closes it. Take an emergency
	// checkpoint at the stalled instruction.
	if c.resourceStalled && !p.ckpts.Full() {
		if y := p.ckpts.Youngest(); y != nil && y.Insts > 0 {
			p.takeCheckpoint(c.fetchPos)
		}
	}
}

// CanRetire reports a window that could commit this cycle: a
// committable checkpoint, or the end-of-program drain of the final open
// window. Both can only become true through a completion (Pending
// hitting zero) or a checkpoint take, events the clock skip already
// observes.
func (p *checkpointPolicy) CanRetire() bool {
	return p.ckpts.CanCommit() || p.finalWindowDone()
}

// ResolveMispredict recovers a mispredicted branch: if the branch is
// still inside the pseudo-ROB and no younger checkpoint exists, recover
// from the pseudo-ROB exactly like the baseline; otherwise roll back to
// the branch's checkpoint, re-executing the (correct-path) instructions
// between the checkpoint and the branch — the cost the paper's
// take-a-checkpoint-at-branches heuristic minimises.
func (p *checkpointPolicy) ResolveMispredict(b *DynInst) {
	c := p.c
	inProb := p.probLen() > 0 && b.Seq >= c.window.At(p.extracted).Seq
	if y := p.ckpts.Youngest(); inProb && y != nil && y.StartSeq <= b.Seq {
		p.pseudoROBRecovery(b)
		return
	}
	// The rollback hardware knows this branch's direction; its replay
	// will not mispredict (see tryDispatch).
	c.markBranchKnown(b)
	p.rollbackToCheckpoint(b.ckpt)
}

// pseudoROBRecovery squashes every instruction younger than the branch.
// All of them are wrong-path and, because the branch is still in the
// pseudo-ROB, all of them are too — the window's tail walk finds
// exactly the victims, and the CAM rename state unwinds per instruction.
func (p *checkpointPolicy) pseudoROBRecovery(b *DynInst) {
	c := p.c
	c.squashYounger(b.Seq+1, true)
	c.fetchPos = b.Pos + 1
	c.probRecoveries++
	// Squashed wrong-path instructions may have seeded the SLIQ
	// dependence masks; drop them (conservative — the masks rebuild
	// from subsequent extractions).
	p.clearDepMasks()
}

// clearDepMasks resets the SLIQ dependence-tracking state.
func (p *checkpointPolicy) clearDepMasks() {
	for i := range p.mask {
		p.mask[i].root = rename.PhysNone
	}
}

// rollbackToCheckpoint restores the machine to the state captured by
// target: every instruction of its window and younger is squashed, the
// rename map snapshot is restored, and fetch resumes at the window
// start. Squashed correct-path instructions count as replayed work.
func (p *checkpointPolicy) rollbackToCheckpoint(target *rename.Checkpoint) {
	c := p.c
	c.squashYounger(target.StartSeq, false)
	// Extraction usually ran past the rollback point.
	p.extracted = min(p.extracted, c.window.Len())

	p.ckpts.Rollback(target)
	c.pred.RestoreHistory(target.History)
	c.fetchPos = target.FetchPos

	// The dependence masks refer to pre-rollback physical registers.
	p.clearDepMasks()
	if c.divergedAt != nil && c.divergedAt.released() {
		c.divergedAt = nil
	}
	c.rollbacks++
}

// RaiseException implements the paper's two-pass precise-exception
// protocol (section 2): roll back to the excepting instruction's
// checkpoint, then re-execute "in a stricter sense" with a checkpoint
// placed exactly before the excepting instruction, leaving the machine
// precise for the operating system. d was armed from c.exceptArm at
// dispatch (see Dispatched), so the table exists.
func (p *checkpointPolicy) RaiseException(d *DynInst) {
	c := p.c
	c.exceptArm[d.Pos] = 2
	p.rollbackToCheckpoint(d.ckpt)
	c.fetchResumeAt = c.now + int64(c.cfg.BranchMispredictPenalty)
}

// OccupancyBound sizes the histogram for the kilo-instruction windows
// checkpoint commit sustains.
func (p *checkpointPolicy) OccupancyBound() int {
	return 4 * p.c.cfg.CheckpointMaxInterval * p.c.cfg.Checkpoints
}

// AddStats extracts the checkpoint-table and adaptive-rule counters.
func (p *checkpointPolicy) AddStats(r *stats.Results) {
	cs := p.ckpts.Stats()
	r.CheckpointsTaken = cs.Taken
	r.CheckpointsCommitted = cs.Committed
	r.CheckpointStallCycles = p.c.ckptStallCycles
	if p.c.conf == nil {
		return
	}
	if r.Policy == nil {
		r.Policy = make(map[string]uint64, 3)
	}
	r.Policy["adaptive.low_confidence_branches"] = p.lowConfBranches
	r.Policy["adaptive.high_confidence_branches"] = p.highConfBranches
	r.Policy["adaptive.branch_checkpoints"] = p.branchCkpts
}

// DebugState renders the checkpoint table and pseudo-ROB occupancy.
func (p *checkpointPolicy) DebugState() string {
	s := fmt.Sprintf(" ckpts=%d/%d", p.ckpts.Len(), p.ckpts.Cap())
	if o := p.ckpts.Oldest(); o != nil {
		s += fmt.Sprintf(" oldest{id=%d pending=%d insts=%d}", o.ID, o.Pending, o.Insts)
	}
	s += fmt.Sprintf(" prob=%d/%d", p.probLen(), p.c.cfg.PseudoROBEntries)
	if p.c.sliq != nil {
		s += fmt.Sprintf(" sliq=%d/%d", p.c.sliq.Len(), p.c.sliq.Cap())
	}
	if p.c.conf != nil {
		s += fmt.Sprintf(" conf<%d", p.threshold)
	}
	return s
}
