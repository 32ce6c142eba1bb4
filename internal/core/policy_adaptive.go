package core

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/isa"
	"repro/internal/stats"
)

// adaptivePolicy is checkpointed commit with confidence-driven
// checkpoint placement: instead of the paper's fixed branch-interval
// rule ("the first branch after 64 instructions"), a saturating-counter
// confidence estimator (branch.Confidence) marks branches that
// mispredicted recently, and a checkpoint is taken immediately before
// each low-confidence branch — the likeliest rollback targets become
// the cheapest ones. The max-interval and max-stores safety rules
// remain (windows must close, and LSQ occupancy must stay bounded), as
// does every other checkpoint-family mechanism: pseudo-ROB, SLIQ,
// window commit, both recovery paths and the exception protocol.
//
// This explores the direction the paper defers to future work ("we
// expect to analyze a whole set of different strategies as to when
// checkpoints should be taken"). The estimator is the CPU's (c.conf,
// see newFrontEnd), which a sampled run threads through every window.
type adaptivePolicy struct {
	*checkpointPolicy
	threshold uint8

	// Counters surfaced through stats.Results.Policy.
	lowConfBranches  uint64 // branches dispatched below the threshold
	highConfBranches uint64
	branchCkpts      uint64 // checkpoints placed immediately before a branch
}

// newAdaptivePolicy builds the checkpoint-commit machinery with the
// confidence rule installed as its checkpoint-taking decision.
func newAdaptivePolicy(c *CPU) *adaptivePolicy {
	base := newCheckpointPolicy(c, checkpoint.Policy{
		// The fixed branch-interval rule is replaced by the confidence
		// rule; setting it to the max interval makes the table's branch
		// clause redundant with the unconditional one.
		BranchInterval: c.cfg.CheckpointMaxInterval,
		MaxInterval:    c.cfg.CheckpointMaxInterval,
		MaxStores:      c.cfg.CheckpointMaxStores,
	})
	a := &adaptivePolicy{
		checkpointPolicy: base,
		threshold:        uint8(c.cfg.AdaptiveConfidenceThreshold),
	}
	base.takeRule = a.shouldTakeAdaptive
	return a
}

// shouldTakeAdaptive is the confidence-driven taking rule. It keeps the
// table's safety heuristics (empty table, max interval, max stores) and
// adds: checkpoint before any branch whose confidence counter is below
// the threshold. The non-empty-window guard makes retries converge — a
// checkpoint taken for this branch on an earlier stalled attempt left
// the young window empty, so the rule does not fire twice (mirroring
// how the interval thresholds self-limit in the base policy).
func (a *adaptivePolicy) shouldTakeAdaptive(inst isa.Inst) bool {
	if a.ckpts.ShouldTake(inst.Op) {
		return true
	}
	if inst.Op != isa.Branch {
		return false
	}
	y := a.ckpts.Youngest()
	if y == nil || y.Insts == 0 {
		return false
	}
	return a.c.conf.Value(inst.PC) < a.threshold
}

// Dispatched extends the base bookkeeping with estimator training: a
// correctly predicted branch saturates its counter upward, a
// misprediction resets it. Branches replayed with a rollback-resolved
// direction (branchResolved) cannot mispredict and train as correct — the
// recovery hardware really does know them. Wrong-path fetch never
// synthesises branches, so every branch seen here is a real one.
func (a *adaptivePolicy) Dispatched(d *DynInst) {
	a.checkpointPolicy.Dispatched(d)
	if d.Inst.Op != isa.Branch || d.WrongPath {
		return
	}
	if a.c.conf.Value(d.Inst.PC) < a.threshold {
		a.lowConfBranches++
	} else {
		a.highConfBranches++
	}
	if d.ckpt != nil && d.ckpt.StartSeq == d.Seq {
		a.branchCkpts++
	}
	a.c.conf.Update(d.Inst.PC, !d.Mispredicted)
}

// AddStats extends the checkpoint counters with the estimator's view.
func (a *adaptivePolicy) AddStats(r *stats.Results) {
	a.checkpointPolicy.AddStats(r)
	if r.Policy == nil {
		r.Policy = make(map[string]uint64, 3)
	}
	r.Policy["adaptive.low_confidence_branches"] = a.lowConfBranches
	r.Policy["adaptive.high_confidence_branches"] = a.highConfBranches
	r.Policy["adaptive.branch_checkpoints"] = a.branchCkpts
}

// DebugState tags the base rendering with the estimator threshold.
func (a *adaptivePolicy) DebugState() string {
	return a.checkpointPolicy.DebugState() + fmt.Sprintf(" conf<%d", a.threshold)
}
