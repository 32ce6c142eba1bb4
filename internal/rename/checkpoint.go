package rename

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/isa"
)

// Checkpoint is one entry of the checkpoint table. Its counters describe
// its window: the core calls Associate at dispatch, Complete when an
// instruction finishes and Squash when one is squashed, on the
// checkpoint the instruction was associated with.
type Checkpoint struct {
	// ID is a unique, monotonically increasing checkpoint identifier.
	ID uint64
	// StartSeq is the dynamic sequence number of the first instruction
	// of this checkpoint's window (the instruction the checkpoint was
	// taken before).
	StartSeq uint64
	// FetchPos is the trace position to resume fetching from after a
	// rollback to this checkpoint.
	FetchPos int64
	// History is the branch-predictor global history at take time.
	History uint64
	// Pending counts associated instructions that have not finished.
	Pending int
	// Insts counts the associated instructions not squashed since, and
	// Stores the stores among them: the core's taking rule reads both.
	Insts  int
	Stores int

	// The snapshot (figure 6): the map at take time, and the Future Free
	// bits the take captured, the registers superseded during the
	// previous checkpoint's window, which are freed when that checkpoint
	// commits. The Valid bits are the map's image, so rollback rebuilds
	// them. futureFree is the slot's own storage: its first take
	// allocates it and every later take reuses it.
	rmap       [isa.NumLogical]PhysReg
	futureFree *bitset.Set
}

// Associate counts a newly dispatched instruction of class op in e's
// window.
func (e *Checkpoint) Associate(op isa.Op) {
	e.Pending++
	e.Insts++
	if op == isa.Store {
		e.Stores++
	}
}

// Complete records that one of e's instructions finished executing.
func (e *Checkpoint) Complete() {
	if e.Pending <= 0 {
		panic(fmt.Sprintf("rename: pending counter underflow on checkpoint %d", e.ID))
	}
	e.Pending--
}

// Squash removes a squashed instruction of class op from e's window;
// done reports whether it had finished (its pending count fell then).
func (e *Checkpoint) Squash(op isa.Op, done bool) {
	if !done {
		e.Complete()
	}
	if e.Insts <= 0 {
		panic(fmt.Sprintf("rename: instruction count underflow on checkpoint %d", e.ID))
	}
	e.Insts--
	if op == isa.Store {
		e.Stores--
	}
}

// CheckpointStats counts checkpoint-table activity.
type CheckpointStats struct {
	Taken     uint64
	Committed uint64
}

// CheckpointTable is the checkpoint table that replaces the reorder
// buffer in the paper's out-of-order commit processor (section 2),
// over one rename table. It is a fixed ring of slots; the live
// checkpoints run oldest first from head.
//
// Take snapshots the rename table immediately before the instruction
// the core's taking rule chose. Every dispatched instruction is
// associated with the youngest checkpoint and counted in its Pending
// counter until it finishes. A checkpoint commits when its counter is
// zero, it is the oldest, and a younger checkpoint has closed its
// window; "commit" then retires the whole window at once: the table
// frees the window's superseded registers, and the caller drains the
// window's stores to memory. Rollback restores the rename state a live
// checkpoint captured.
type CheckpointTable struct {
	rt     *Table
	ring   []Checkpoint
	head   int // slot of the oldest live checkpoint
	n      int // live checkpoints
	nextID uint64
	stats  CheckpointStats
}

// NewCheckpointTable builds a checkpoint table with the given capacity
// over the rename table rt, whose state it snapshots and restores.
func NewCheckpointTable(capacity int, rt *Table) *CheckpointTable {
	if capacity < 1 {
		panic(fmt.Sprintf("rename: checkpoint capacity %d < 1", capacity))
	}
	return &CheckpointTable{rt: rt, ring: make([]Checkpoint, capacity)}
}

// Len returns the number of live checkpoints.
func (t *CheckpointTable) Len() int { return t.n }

// Cap returns the table capacity.
func (t *CheckpointTable) Cap() int { return len(t.ring) }

// Full reports whether no further checkpoint can be taken.
func (t *CheckpointTable) Full() bool { return t.n == len(t.ring) }

// At returns the i-th live checkpoint, oldest first (0 <= i < Len).
func (t *CheckpointTable) At(i int) *Checkpoint {
	// head and i are both below the capacity, so one wrap suffices.
	// Dispatch reads the youngest twice per instruction, and a modulo by
	// a run-time length is a division.
	j := t.head + i
	if j >= len(t.ring) {
		j -= len(t.ring)
	}
	return &t.ring[j]
}

// Oldest returns the oldest live checkpoint, or nil.
func (t *CheckpointTable) Oldest() *Checkpoint {
	if t.n == 0 {
		return nil
	}
	return t.At(0)
}

// Youngest returns the youngest live checkpoint (the one accumulating
// new instructions), or nil.
func (t *CheckpointTable) Youngest() *Checkpoint {
	if t.n == 0 {
		return nil
	}
	return t.At(t.n - 1)
}

// Take creates a new (youngest) checkpoint whose window starts at
// startSeq: it captures the map and the live Future Free bits, which
// restart empty for the new window. It returns nil, and captures
// nothing, when the table is at capacity; fetch must stall and retry.
// The free list is not captured: rollback derives it.
func (t *CheckpointTable) Take(startSeq uint64, fetchPos int64, history uint64) *Checkpoint {
	if t.Full() {
		return nil
	}
	e := t.At(t.n)
	// The live set moves into the checkpoint, and the slot's old set,
	// cleared, collects the new window's.
	next := e.futureFree
	if next == nil {
		next = bitset.New(t.rt.n)
	} else {
		next.Reset()
	}
	*e = Checkpoint{
		ID:         t.nextID,
		StartSeq:   startSeq,
		FetchPos:   fetchPos,
		History:    history,
		rmap:       t.rt.rmap,
		futureFree: t.rt.futureFree,
	}
	t.rt.futureFree = next
	t.nextID++
	t.n++
	t.stats.Taken++
	return e
}

// CanCommit reports whether the oldest checkpoint is ready to commit:
// all of its window's instructions have finished and the window has been
// closed by a younger checkpoint.
func (t *CheckpointTable) CanCommit() bool {
	return t.n >= 2 && t.At(0).Pending == 0
}

// Commit retires the oldest checkpoint: it frees the window's
// superseded registers (the Future Free set the next checkpoint
// captured) and returns the window-end sequence number (the next
// checkpoint's StartSeq), which bounds the stores to drain. Its slot
// waits for a later take. It panics if CanCommit is false.
func (t *CheckpointTable) Commit() (endSeq uint64) {
	if !t.CanCommit() {
		panic("rename: checkpoint Commit called while not committable")
	}
	next, rt := t.At(1), t.rt
	next.futureFree.ForEach(func(i int) {
		if rt.valid.Get(i) {
			panic(fmt.Sprintf("rename: future-free register p%d still valid", i))
		}
		if !rt.inFree[i] {
			rt.pushFree(PhysReg(i))
		}
	})
	if t.head++; t.head == len(t.ring) {
		t.head = 0
	}
	t.n--
	t.stats.Committed++
	return next.StartSeq
}

// Rollback discards every checkpoint younger than target, reopens
// target's window (its counters reset: the whole window is squashed and
// will be re-fetched) and restores the rename table to target's
// snapshot. Older checkpoints may have committed, and freed registers,
// since the take, so the free list is rebuilt as every register that is
// neither valid nor owed to a live checkpoint's commit: the Future Free
// sets captured by the live checkpoints younger than the oldest. The
// live Future Free bits restart empty, as after a take. Target must be
// live.
func (t *CheckpointTable) Rollback(target *Checkpoint) {
	idx := -1
	for i := 0; i < t.n; i++ {
		if t.At(i) == target {
			idx = i
			break
		}
	}
	if idx < 0 {
		panic(fmt.Sprintf("rename: rollback target checkpoint %d not live", target.ID))
	}
	t.n = idx + 1
	target.Pending, target.Insts, target.Stores = 0, 0, 0

	rt := t.rt
	rt.rmap = target.rmap
	rt.valid.Reset()
	for _, p := range rt.rmap {
		rt.valid.Set(int(p))
	}
	rt.futureFree.Reset()
	// Rebuilt in ascending index order (deterministic; subsequent pops
	// take the highest index first, which is as arbitrary, and as
	// architecturally invisible, as any other order).
	free := rt.scratch
	free.SetAll()
	free.AndNotWith(rt.valid)
	for i := 1; i <= idx; i++ {
		free.AndNotWith(t.At(i).futureFree)
	}
	rt.freeStack = rt.freeStack[:0]
	clear(rt.inFree)
	free.ForEach(func(i int) { rt.pushFree(PhysReg(i)) })
}

// Stats returns a copy of the activity counters.
func (t *CheckpointTable) Stats() CheckpointStats { return t.stats }

// CheckInvariants validates internal consistency, and register
// conservation over the rename table, for tests.
func (t *CheckpointTable) CheckInvariants() error {
	if t.n > len(t.ring) {
		return fmt.Errorf("rename: %d live checkpoints in a table of %d", t.n, len(t.ring))
	}
	for i := 1; i < t.n; i++ {
		prev, cur := t.At(i-1), t.At(i)
		if cur.ID <= prev.ID {
			return fmt.Errorf("rename: checkpoint IDs not increasing (%d then %d)", prev.ID, cur.ID)
		}
		if cur.StartSeq < prev.StartSeq {
			return fmt.Errorf("rename: checkpoint StartSeq not monotonic (%d then %d)", prev.StartSeq, cur.StartSeq)
		}
	}
	for i := 0; i < t.n; i++ {
		if e := t.At(i); e.Pending < 0 || e.Pending > e.Insts {
			return fmt.Errorf("rename: checkpoint %d pending %d out of range [0,%d]", e.ID, e.Pending, e.Insts)
		}
	}
	// Register conservation: a register is free exactly when it is not
	// valid, not in the live Future Free set and not owed to a live
	// checkpoint's commit, that is, not in the set captured by a live
	// checkpoint but the oldest (the oldest's was freed when its
	// predecessor committed).
	rt := t.rt
	for p := 0; p < rt.n; p++ {
		want := !rt.valid.Get(p) && !rt.futureFree.Get(p)
		for i := 1; i < t.n; i++ {
			if t.At(i).futureFree.Get(p) {
				want = false
			}
		}
		if rt.inFree[p] != want {
			return fmt.Errorf("rename: p%d free=%v, want %v (valid=%v futureFree=%v)",
				p, rt.inFree[p], want, rt.valid.Get(p), rt.futureFree.Get(p))
		}
	}
	return nil
}
