package core

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/rename"
	"repro/internal/stats"
)

// inOrderPolicy retires finished instructions strictly in program order
// from the head of the CPU's window. Bounded, it is the conventional
// baseline the paper replaces: a reorder buffer of capacity entries that
// retires at most width instructions a cycle. With capacity and width
// both zero it is the unbounded-window limit for Figure 1 style studies
// (the oracle): the window grows without bound and every finished head
// instruction retires the cycle it reaches the front. Throughput is then
// bounded only by the substrate the paper holds fixed (register file,
// issue queues, LSQ, memory ports — though instructions holding none of
// those, like issued branches, can occupy the window without limit), so
// the gap between the oracle and any realisable policy is exactly the
// cost of the commit mechanism.
type inOrderPolicy struct {
	c *CPU
	// capacity bounds the window and width the per-cycle retirement;
	// zero means unbounded.
	capacity, width int

	maxBurst uint64 // largest single-cycle retirement
}

// Admit stalls dispatch only while a bounded window is full.
func (p *inOrderPolicy) Admit(isa.Inst, int64) bool {
	return p.capacity == 0 || p.c.window.Len() < p.capacity
}

// MakeRoom is a no-op: window space was checked in Admit.
func (p *inOrderPolicy) MakeRoom() {}

// AllocateDest uses the conventional discipline: the previous mapping
// is freed when the redefining instruction commits.
func (p *inOrderPolicy) AllocateDest(dest isa.Reg) (rename.PhysReg, rename.PhysReg, bool) {
	return p.c.rt.AllocateROB(dest)
}

// Dispatched checks the window bound Admit enforced.
func (p *inOrderPolicy) Dispatched(*DynInst) {
	if p.capacity > 0 && p.c.window.Len() > p.capacity {
		panic("core: ROB full after Admit")
	}
}

// Completed is a no-op: Commit polls Done at the head.
func (p *inOrderPolicy) Completed(*DynInst) {}

// Squashed is a no-op: the policy keeps no per-instruction accounting.
func (p *inOrderPolicy) Squashed(*DynInst) {}

// Commit retires finished instructions from the window head, at most
// width of them when a width is set, freeing superseded physical
// registers and draining stores.
func (p *inOrderPolicy) Commit() {
	c := p.c
	var n int
	for p.width == 0 || n < p.width {
		d := c.window.Front()
		if d == nil || !d.Done {
			break
		}
		c.window.PopFront()
		c.commitInst(d)
		if d.PrevPhys != rename.PhysNone {
			c.rt.Free(d.PrevPhys)
			c.producer[d.PrevPhys] = nil
		}
		c.lastCommitCycle = c.now
		c.pool.release(d)
		n++
	}
	if uint64(n) > p.maxBurst {
		p.maxBurst = uint64(n)
	}
}

// DispatchStalled is a no-op: a full window clears itself as heads
// retire.
func (p *inOrderPolicy) DispatchStalled() {}

// NextRetireEvent reports "now" while the window head is finished
// (Commit would retire it this cycle) and -1 otherwise: an unfinished
// head can only become retirable through a completion event, which the
// clock skip already bounds by the event wheel.
func (p *inOrderPolicy) NextRetireEvent(now int64) int64 {
	if d := p.c.window.Front(); d != nil && d.Done {
		return now
	}
	return -1
}

// ResolveMispredict squashes everything younger than the branch from
// the window tail (all of it wrong-path, since fetch diverged at the
// branch).
func (p *inOrderPolicy) ResolveMispredict(b *DynInst) {
	p.c.squashYounger(b.Seq+1, true)
}

// RaiseException is a no-op: in-order retirement models no exception
// replay (exceptions are only armed under the checkpoint family).
func (p *inOrderPolicy) RaiseException(*DynInst) {}

// OccupancyBound is the capacity of a bounded window. Unbounded,
// destination-less instructions (branches) hold neither a renameable
// register nor an LSQ slot once issued, so they can pile up behind a
// slow head without structural limit — the only true bound on
// correct-path occupancy is the trace itself. Wrong-path occupancy is
// bounded by PhysRegs (every synthetic wrong-path op carries a
// destination).
func (p *inOrderPolicy) OccupancyBound() int {
	if p.capacity > 0 {
		return p.capacity
	}
	return int(p.c.tr.Len()) + p.c.cfg.PhysRegs
}

// AddStats records, for the unbounded window only, the largest
// single-cycle retirement: the number a real commit port would have to
// sustain to match the limit. The bounded baseline defines no policy
// counters.
func (p *inOrderPolicy) AddStats(r *stats.Results) {
	if p.capacity > 0 {
		return
	}
	if r.Policy == nil {
		r.Policy = make(map[string]uint64, 1)
	}
	r.Policy["oracle.max_retire_burst"] = p.maxBurst
}

// DebugState renders the window occupancy against its capacity (0 is
// unbounded).
func (p *inOrderPolicy) DebugState() string {
	return fmt.Sprintf(" window=%d/%d", p.c.window.Len(), p.capacity)
}
