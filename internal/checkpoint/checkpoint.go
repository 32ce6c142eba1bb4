// Package checkpoint implements the checkpoint table that replaces the
// reorder buffer in the paper's out-of-order commit processor (section 2).
//
// The table owns the checkpoint mechanism over one rename table. Take
// captures a rename snapshot immediately before the instruction the
// core's taking rule chose (the paper's heuristics and the adaptive
// confidence clause live in core, checkpointPolicy.shouldTake). Every
// dispatched instruction is associated with the youngest checkpoint and
// counted in its pending counter; the counter is decremented as
// instructions finish (see Entry). A checkpoint commits when its
// counter reaches zero, it is the oldest checkpoint, and its window has
// been closed by a younger checkpoint — "commit" then retires the whole
// window at once:
// the table applies its deferred register frees, and the caller drains
// the window's stores to memory. Rollback restores the rename state a
// live checkpoint captured.
package checkpoint

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/isa"
	"repro/internal/rename"
)

// Entry is one live checkpoint. Its counters describe its window: the
// core calls Associate at dispatch, Complete when an instruction
// finishes and Squash when one is squashed, on the entry the
// instruction was associated with.
type Entry struct {
	// ID is a unique, monotonically increasing checkpoint identifier.
	ID uint64
	// StartSeq is the dynamic sequence number of the first instruction
	// of this checkpoint's window (the instruction the checkpoint was
	// taken before).
	StartSeq uint64
	// FetchPos is the trace position to resume fetching from after a
	// rollback to this checkpoint.
	FetchPos int64
	// snap is the rename-table snapshot taken with this checkpoint. Its
	// captured Future Free set belongs to the *previous* window and is
	// released when the previous checkpoint commits.
	snap rename.Snapshot
	// History is the branch-predictor global history at take time.
	History uint64
	// Pending counts associated instructions that have not finished.
	Pending int
	// Insts counts the associated instructions not squashed since, and
	// Stores the stores among them: the core's taking rule reads both.
	Insts  int
	Stores int
}

// Associate counts a newly dispatched instruction of class op in e's
// window.
func (e *Entry) Associate(op isa.Op) {
	e.Pending++
	e.Insts++
	if op == isa.Store {
		e.Stores++
	}
}

// Complete records that one of e's instructions finished executing.
func (e *Entry) Complete() {
	if e.Pending <= 0 {
		panic(fmt.Sprintf("checkpoint: pending counter underflow on checkpoint %d", e.ID))
	}
	e.Pending--
}

// Squash removes a squashed instruction of class op from e's window;
// done reports whether it had finished (its pending count fell then).
func (e *Entry) Squash(op isa.Op, done bool) {
	if !done {
		e.Complete()
	}
	if e.Insts <= 0 {
		panic(fmt.Sprintf("checkpoint: instruction count underflow on checkpoint %d", e.ID))
	}
	e.Insts--
	if op == isa.Store {
		e.Stores--
	}
}

// Stats counts checkpoint-table activity.
type Stats struct {
	Taken     uint64
	Committed uint64
}

// Table is the checkpoint table. Entries are ordered oldest first.
type Table struct {
	capacity int
	rt       *rename.Table
	entries  []*Entry
	nextID   uint64
	stats    Stats
}

// NewTable builds a checkpoint table with the given capacity over the
// rename table rt, whose snapshots it takes, commits and restores.
func NewTable(capacity int, rt *rename.Table) *Table {
	if capacity < 1 {
		panic(fmt.Sprintf("checkpoint: capacity %d < 1", capacity))
	}
	return &Table{
		capacity: capacity,
		rt:       rt,
		entries:  make([]*Entry, 0, capacity),
	}
}

// Len returns the number of live checkpoints.
func (t *Table) Len() int { return len(t.entries) }

// Cap returns the table capacity.
func (t *Table) Cap() int { return t.capacity }

// Full reports whether no further checkpoint can be taken.
func (t *Table) Full() bool { return len(t.entries) >= t.capacity }

// Oldest returns the oldest live checkpoint, or nil.
func (t *Table) Oldest() *Entry {
	if len(t.entries) == 0 {
		return nil
	}
	return t.entries[0]
}

// Youngest returns the youngest live checkpoint (the one accumulating
// new instructions), or nil.
func (t *Table) Youngest() *Entry {
	if len(t.entries) == 0 {
		return nil
	}
	return t.entries[len(t.entries)-1]
}

// Take snapshots the rename table and creates a new (youngest)
// checkpoint whose window starts at startSeq. It returns nil, and takes
// no snapshot, when the table is at capacity; fetch must stall and
// retry.
func (t *Table) Take(startSeq uint64, fetchPos int64, history uint64) *Entry {
	if t.Full() {
		return nil
	}
	e := &Entry{
		ID:       t.nextID,
		StartSeq: startSeq,
		FetchPos: fetchPos,
		snap:     t.rt.TakeSnapshot(),
		History:  history,
	}
	t.nextID++
	t.entries = append(t.entries, e)
	t.stats.Taken++
	return e
}

// CanCommit reports whether the oldest checkpoint is ready to commit:
// all of its window's instructions have finished and the window has been
// closed by a younger checkpoint.
func (t *Table) CanCommit() bool {
	return len(t.entries) >= 2 && t.entries[0].Pending == 0
}

// Commit retires the oldest checkpoint: it frees the window's deferred
// registers (the Future Free set the next checkpoint captured), recycles
// the retired snapshot, and returns the window-end sequence number (the
// next checkpoint's StartSeq), which bounds the stores to drain. It
// panics if CanCommit is false.
func (t *Table) Commit() (endSeq uint64) {
	if !t.CanCommit() {
		panic("checkpoint: Commit called while not committable")
	}
	e, next := t.entries[0], t.entries[1]
	t.rt.CommitFutureFree(next.snap.FutureFree())
	t.rt.ReleaseSnapshot(e.snap)
	copy(t.entries, t.entries[1:])
	t.entries[len(t.entries)-1] = nil
	t.entries = t.entries[:len(t.entries)-1]
	t.stats.Committed++
	return next.StartSeq
}

// Rollback discards every checkpoint younger than target, reopens
// target's window (its counters reset: the whole window is squashed and
// will be re-fetched) and restores the rename table to target's
// snapshot. The free list is rebuilt around the deferred frees still
// owed: the Future Free sets captured by the live checkpoints younger
// than the oldest. Target must be live.
func (t *Table) Rollback(target *Entry) {
	idx := -1
	for i, e := range t.entries {
		if e == target {
			idx = i
			break
		}
	}
	if idx < 0 {
		panic(fmt.Sprintf("checkpoint: rollback target %d not live", target.ID))
	}
	for i := len(t.entries) - 1; i > idx; i-- {
		t.rt.ReleaseSnapshot(t.entries[i].snap)
		t.entries[i] = nil
	}
	t.entries = t.entries[:idx+1]
	target.Pending = 0
	target.Insts = 0
	target.Stores = 0

	var pendingFree []*bitset.Set
	for _, e := range t.entries[1:] {
		pendingFree = append(pendingFree, e.snap.FutureFree())
	}
	t.rt.Rollback(target.snap, pendingFree)
}

// Stats returns a copy of the activity counters.
func (t *Table) Stats() Stats { return t.stats }

// CheckInvariants validates internal consistency for tests.
func (t *Table) CheckInvariants() error {
	if len(t.entries) > t.capacity {
		return fmt.Errorf("checkpoint: %d entries exceed capacity %d", len(t.entries), t.capacity)
	}
	for i := 1; i < len(t.entries); i++ {
		prev, cur := t.entries[i-1], t.entries[i]
		if cur.ID <= prev.ID {
			return fmt.Errorf("checkpoint: IDs not increasing (%d then %d)", prev.ID, cur.ID)
		}
		if cur.StartSeq < prev.StartSeq {
			return fmt.Errorf("checkpoint: StartSeq not monotonic (%d then %d)", prev.StartSeq, cur.StartSeq)
		}
	}
	for _, e := range t.entries {
		if e.Pending < 0 || e.Pending > e.Insts {
			return fmt.Errorf("checkpoint %d: pending %d out of range [0,%d]", e.ID, e.Pending, e.Insts)
		}
	}
	return nil
}
