package core

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/rename"
	"repro/internal/stats"
)

// CommitPolicy is the retirement engine of a CPU: everything that used
// to be a commit-mode switch in the pipeline is a method here. The CPU
// owns the shared machinery (fetch, rename scoreboard, issue queues,
// LSQ, caches, the DynInst pool); the policy owns the commit-side
// structures (ROB, checkpoint table, pseudo-ROB, oracle window) and is
// hooked at dispatch admission, completion, per-cycle retirement,
// branch/exception recovery and stats extraction. inOrderPolicy serves
// rob and oracle; checkpointPolicy serves checkpoint and adaptive.
//
// Lifetime contract: policies operate on pooled DynInst records (see
// the ownership contract on DynInst). A policy must release records it
// retires (c.pool.release) and must never hold a *DynInst past the
// instruction's release except alongside its Seq; the pseudo-ROB's
// Retired handshake in the checkpoint family is the worked example.
type CommitPolicy interface {
	// Admit is called at the top of every dispatch attempt, before any
	// shared resource check. It performs the policy's pre-instruction
	// work (checkpoint taking, ROB-full gating) and returns false to
	// stall the front end this cycle. It may run several times for the
	// same instruction across stall cycles, so repeated calls must
	// converge (a checkpoint taken on an earlier attempt must not force
	// a second one).
	Admit(inst isa.Inst, pos int64) bool
	// MakeRoom runs after every shared structural check has passed,
	// immediately before the record is built: the checkpoint family
	// extracts the oldest pseudo-ROB entry here when the FIFO is full.
	MakeRoom()
	// AllocateDest renames the destination register under the policy's
	// freeing discipline (deferred Future Free vs. free-at-commit).
	AllocateDest(dest isa.Reg) (phys, prev rename.PhysReg, ok bool)
	// Dispatched records a successfully dispatched instruction into the
	// retirement structure. It runs after branch resolution bookkeeping,
	// so d.Mispredicted is already final.
	Dispatched(d *DynInst)
	// Completed is notified when d finishes execution (writeback).
	Completed(d *DynInst)
	// Squashed removes d from the policy's retirement accounting; the
	// caller (squashInst) handles every shared structure.
	Squashed(d *DynInst)
	// Commit is the per-cycle retirement stage.
	Commit()
	// DispatchStalled runs at the end of a dispatch cycle that admitted
	// nothing — the checkpoint family's pressure-extraction and
	// emergency-checkpoint window (deadlock avoidance).
	DispatchStalled()
	// ResolveMispredict recovers from mispredicted branch b at its
	// resolution. The CPU has already cleared divergedAt and applies the
	// front-end redirect penalty afterwards.
	ResolveMispredict(b *DynInst)
	// RaiseException delivers a precise exception at d. Policies
	// without a replay mechanism ignore it (matching the former
	// checkpoint-mode-only behaviour).
	RaiseException(d *DynInst)
	// NextRetireEvent reports the earliest cycle >= now at which Commit
	// could retire (or otherwise make progress) given the policy's
	// current state, or -1 when no retirement is schedulable before some
	// new completion event arrives. The event-driven clock skip consults
	// it on quiescent cycles: a stalled checkpoint table or full
	// pseudo-ROB is quiescent only if no retirement can free it. A
	// policy may be conservative (returning now disables the skip, which
	// is always correct) but must never place the event later than it
	// could really fire.
	NextRetireEvent(now int64) int64
	// OccupancyBound sizes the occupancy histogram for this policy's
	// reachable window.
	OccupancyBound() int
	// AddStats folds the policy's counters into the run results.
	AddStats(r *stats.Results)
	// DebugState renders the policy's structures for watchdog panics.
	DebugState() string
}

// newPolicy builds the retirement engine cfg.Commit selects. It runs at
// the end of CPU construction: the shared machinery is built, the policy
// adds its own. Validate has already rejected any other mode. The
// checkpoint-family modes differ only in shouldTake's branch clause.
func newPolicy(c *CPU) CommitPolicy {
	switch c.cfg.Commit {
	case config.CommitROB:
		return newInOrderPolicy(c, c.cfg.ROBEntries, c.cfg.CommitWidth)
	case config.CommitCheckpoint, config.CommitAdaptive:
		return newCheckpointPolicy(c)
	case config.CommitOracle:
		return newInOrderPolicy(c, 0, 0)
	}
	panic(fmt.Sprintf("core: unknown commit policy %q", c.cfg.Commit))
}
