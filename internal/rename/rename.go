// Package rename implements the CAM-style register mapping of the paper
// (section 2, figures 3-6): one entry per physical register holding the
// logical register it renames, a Valid bit, and the paper's new Future
// Free bit, plus a free list.
//
// Allocation is one operation: Allocate installs the new mapping and
// marks the previous one's Future Free bit. Two freeing disciplines
// follow it, matching the two processors under study:
//
//   - ROB mode: the caller frees the previous mapping with Free when
//     the redefining instruction commits (conventional); Free clears
//     the Future Free bit, which no snapshot ever captures there.
//   - Checkpoint mode: TakeSnapshot captures the marked registers, and
//     they are freed together when the checkpoint owning their window
//     commits (the paper's deferred release).
//
// Unwind reverses one allocation on a tail squash under either.
//
// Snapshot/Rollback implement the checkpointing of figure 3: a snapshot
// conceptually costs two bits per physical register (Valid + Future
// Free); the free list and the logical map are derivable in hardware and
// are kept outside the snapshot (Rollback re-derives them).
//
// The free list is a LIFO stack, so allocation is a pop instead of a
// lowest-free bitmap scan (the scan was a visible slice of the dispatch
// profile at 4096 registers). Which free register an allocation picks
// is architecturally irrelevant — renaming is a bijection and no timing
// in the pipeline depends on the numeric index — and the stack order is
// fully deterministic, so simulated results are unchanged (pinned by
// the figure-9 golden).
package rename

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/isa"
)

// PhysReg indexes the physical register file. PhysNone means "none".
type PhysReg int32

// PhysNone marks the absence of a physical register.
const PhysNone PhysReg = -1

// Table is the CAM register map. Not safe for concurrent use.
type Table struct {
	n int
	// logical[p] is the logical register that physical p renames. Only
	// meaningful while p is valid or awaiting a deferred free.
	logical []isa.Reg
	// valid marks current mappings (at most one per logical register).
	valid *bitset.Set
	// futureFree marks old mappings superseded since the last
	// checkpoint; they are freed when that window's checkpoint commits.
	futureFree *bitset.Set
	// freeStack holds the allocatable physical registers (allocate pops,
	// free pushes); inFree mirrors membership for the double-free and
	// invariant checks.
	freeStack []PhysReg
	inFree    []bool
	// scratch is the rollback work set for re-deriving the free list.
	scratch *bitset.Set
	// rmap is the logical->physical inverse of the CAM's associative
	// lookup.
	rmap [isa.NumLogical]PhysReg

	// snapPool recycles snapshot backing sets (see ReleaseSnapshot):
	// checkpoint-heavy runs take one snapshot per window, and the bitset
	// clones per take dominated the simulator's allocation profile
	// before pooling.
	snapPool []Snapshot
}

// Snapshot is the checkpoint record of the rename state at one point in
// the program. See the package comment for the hardware-cost argument.
type Snapshot struct {
	valid      *bitset.Set
	futureFree *bitset.Set
	rmap       [isa.NumLogical]PhysReg
}

// FutureFree returns the snapshot's captured Future Free set: the
// registers superseded during the *previous* checkpoint's window, to be
// freed when that previous checkpoint commits.
func (s *Snapshot) FutureFree() *bitset.Set { return s.futureFree }

// New builds a rename table with nPhys physical registers and allocates
// an initial mapping for every logical register (architectural state
// must always be mapped).
func New(nPhys int) *Table {
	if nPhys < isa.NumLogical {
		panic(fmt.Sprintf("rename: %d physical registers < %d logical", nPhys, isa.NumLogical))
	}
	t := &Table{
		n:          nPhys,
		logical:    make([]isa.Reg, nPhys),
		valid:      bitset.New(nPhys),
		futureFree: bitset.New(nPhys),
		freeStack:  make([]PhysReg, 0, nPhys),
		inFree:     make([]bool, nPhys),
		scratch:    bitset.New(nPhys),
	}
	// Push high to low so the first pops hand out the lowest indices,
	// matching the initial mappings below.
	for p := nPhys - 1; p >= isa.NumLogical; p-- {
		t.logical[p] = isa.RegNone
		t.freeStack = append(t.freeStack, PhysReg(p))
		t.inFree[p] = true
	}
	for l := 0; l < isa.NumLogical; l++ {
		p := PhysReg(l)
		t.valid.Set(int(p))
		t.logical[p] = isa.Reg(l)
		t.rmap[l] = p
	}
	return t
}

// FreeCount returns the number of allocatable physical registers.
func (t *Table) FreeCount() int { return len(t.freeStack) }

// Lookup returns the current physical mapping of logical register l.
func (t *Table) Lookup(l isa.Reg) PhysReg {
	if !l.Valid() {
		return PhysNone
	}
	return t.rmap[l]
}

// pushFree returns p to the free stack.
func (t *Table) pushFree(p PhysReg) {
	t.freeStack = append(t.freeStack, p)
	t.inFree[p] = true
}

// Allocate renames dest: it takes a register from the free list,
// installs the new mapping and sets the previous mapping's Future Free
// bit (figures 4-5 of the paper). It returns the new and previous
// physical registers, or ok=false when the free list is empty. The
// previous mapping is freed by Free (ROB mode) or by its window's
// checkpoint commit (checkpoint mode; see the package comment).
func (t *Table) Allocate(dest isa.Reg) (newP, prevP PhysReg, ok bool) {
	if !dest.Valid() {
		panic(fmt.Sprintf("rename: allocate for invalid register %v", dest))
	}
	top := len(t.freeStack) - 1
	if top < 0 {
		return PhysNone, PhysNone, false
	}
	newP = t.freeStack[top]
	t.freeStack = t.freeStack[:top]
	t.inFree[newP] = false
	prevP = t.rmap[dest]
	t.valid.Set(int(newP))
	t.logical[newP] = dest
	t.rmap[dest] = newP
	if prevP != PhysNone {
		t.valid.Clear(int(prevP))
		t.futureFree.Set(int(prevP))
	}
	return newP, prevP, true
}

// Free returns p to the free list (ROB-mode commit, or rollback
// cleanup), clearing its Future Free bit.
func (t *Table) Free(p PhysReg) {
	if p == PhysNone {
		return
	}
	i := int(p)
	if t.inFree[i] {
		panic(fmt.Sprintf("rename: double free of p%d", p))
	}
	if t.valid.Get(i) {
		panic(fmt.Sprintf("rename: freeing valid mapping p%d (%v)", p, t.logical[i]))
	}
	t.futureFree.Clear(i)
	t.logical[i] = isa.RegNone
	t.pushFree(p)
}

// Unwind reverses a single allocation during a tail-squash walk: the
// youngest definition of a logical register is removed, restoring prevP
// as the current mapping. Squashes must unwind in reverse program order.
// It also clears prevP's Future Free bit, which is only valid when no
// checkpoint was taken after the allocation (the caller guarantees it —
// otherwise the bit to restore lives in a snapshot, and a full rollback
// is required).
func (t *Table) Unwind(dest isa.Reg, newP, prevP PhysReg) {
	if t.rmap[dest] != newP {
		panic(fmt.Sprintf("rename: unwind of %v expects p%d, table has p%d",
			dest, newP, t.rmap[dest]))
	}
	t.valid.Clear(int(newP))
	t.logical[newP] = isa.RegNone
	t.pushFree(newP)
	t.rmap[dest] = prevP
	if prevP != PhysNone {
		t.valid.Set(int(prevP))
		t.futureFree.Clear(int(prevP))
	}
}

// TakeSnapshot implements taking a checkpoint (figure 6): it captures
// the Valid and Future Free bits (plus the logical map for the
// simulator's benefit) and clears the live Future Free bits so the next
// window starts accumulating afresh. The free list is not captured —
// Rollback re-derives it, as the hardware would.
func (t *Table) TakeSnapshot() Snapshot {
	var s Snapshot
	if n := len(t.snapPool); n > 0 {
		s = t.snapPool[n-1]
		t.snapPool[n-1] = Snapshot{}
		t.snapPool = t.snapPool[:n-1]
		s.valid.CopyFrom(t.valid)
		s.futureFree.CopyFrom(t.futureFree)
	} else {
		s = Snapshot{
			valid:      t.valid.Clone(),
			futureFree: t.futureFree.Clone(),
		}
	}
	s.rmap = t.rmap
	t.futureFree.Reset()
	return s
}

// ReleaseSnapshot returns a snapshot's backing sets to the table's
// internal pool for reuse by a future TakeSnapshot. The caller must
// drop every reference into the snapshot (including its FutureFree set)
// before releasing; the owning checkpoint's commit or rollback-discard
// is the natural point. Releasing the zero Snapshot is a no-op.
func (t *Table) ReleaseSnapshot(s Snapshot) {
	if s.valid == nil {
		return
	}
	t.snapPool = append(t.snapPool, s)
}

// CommitFutureFree releases every register in ff (a snapshot's captured
// Future Free set) back to the free list. Called when the checkpoint
// owning that window commits.
func (t *Table) CommitFutureFree(ff *bitset.Set) {
	ff.ForEach(func(i int) {
		if t.valid.Get(i) {
			panic(fmt.Sprintf("rename: future-free register p%d still valid", i))
		}
		if !t.inFree[i] {
			t.logical[i] = isa.RegNone
			t.pushFree(PhysReg(i))
		}
	})
}

// Rollback restores the rename state to snapshot s, taken at the
// checkpoint being rolled back to. Because older checkpoints may have
// committed (and freed registers) since s was captured, the free list is
// recomputed as "everything not valid and not pending a deferred free",
// where pendingFree is the union of the captured Future Free sets of all
// still-live older checkpoints. The live Future Free accumulator
// restarts empty, exactly the post-TakeSnapshot state.
func (t *Table) Rollback(s Snapshot, pendingFree []*bitset.Set) {
	t.valid.CopyFrom(s.valid)
	t.rmap = s.rmap
	t.futureFree.Reset()

	// free = ~(valid | union(pendingFree)), rebuilt in ascending index
	// order (deterministic; subsequent pops take the highest index
	// first, which is as arbitrary — and as architecturally invisible —
	// as any other order).
	t.scratch.SetAll()
	t.scratch.AndNotWith(t.valid)
	for _, pf := range pendingFree {
		t.scratch.AndNotWith(pf)
	}
	t.freeStack = t.freeStack[:0]
	clear(t.inFree)
	// Rebuild the logical fields of valid entries from the snapshot map
	// (hardware keeps them in the CAM; the simulator re-derives them).
	for l := 0; l < isa.NumLogical; l++ {
		p := t.rmap[l]
		if p != PhysNone {
			t.logical[p] = isa.Reg(l)
		}
	}
	t.scratch.ForEach(func(i int) {
		t.logical[i] = isa.RegNone
		t.freeStack = append(t.freeStack, PhysReg(i))
		t.inFree[i] = true
	})
}

// Logical returns the logical register physical p currently renames, or
// isa.RegNone.
func (t *Table) Logical(p PhysReg) isa.Reg {
	if p == PhysNone {
		return isa.RegNone
	}
	return t.logical[p]
}

// Valid reports whether p holds the current mapping of its logical
// register.
func (t *Table) Valid(p PhysReg) bool { return p != PhysNone && t.valid.Get(int(p)) }

// IsFree reports whether p is on the free list.
func (t *Table) IsFree(p PhysReg) bool { return p != PhysNone && t.inFree[p] }

// FutureFreePending reports whether p is marked for deferred freeing in
// the live window.
func (t *Table) FutureFreePending(p PhysReg) bool {
	return p != PhysNone && t.futureFree.Get(int(p))
}

// CheckInvariants verifies structural consistency; tests call it after
// every operation sequence. It returns a descriptive error on violation.
func (t *Table) CheckInvariants() error {
	// Every logical register maps to exactly one valid physical entry.
	seen := make(map[PhysReg]isa.Reg)
	for l := 0; l < isa.NumLogical; l++ {
		p := t.rmap[l]
		if p == PhysNone {
			return fmt.Errorf("rename: logical %v unmapped", isa.Reg(l))
		}
		if !t.valid.Get(int(p)) {
			return fmt.Errorf("rename: logical %v maps to invalid p%d", isa.Reg(l), p)
		}
		if t.logical[p] != isa.Reg(l) {
			return fmt.Errorf("rename: p%d records %v, rmap says %v", p, t.logical[p], isa.Reg(l))
		}
		if prev, dup := seen[p]; dup {
			return fmt.Errorf("rename: p%d mapped by both %v and %v", p, prev, isa.Reg(l))
		}
		seen[p] = isa.Reg(l)
	}
	// Valid count equals the logical register count.
	if got := t.valid.Count(); got != isa.NumLogical {
		return fmt.Errorf("rename: %d valid bits, want %d", got, isa.NumLogical)
	}
	// The stack and the membership mirror agree.
	count := 0
	for _, free := range t.inFree {
		if free {
			count++
		}
	}
	if count != len(t.freeStack) {
		return fmt.Errorf("rename: freeStack has %d entries, membership says %d", len(t.freeStack), count)
	}
	for _, p := range t.freeStack {
		if !t.inFree[p] {
			return fmt.Errorf("rename: p%d stacked but not marked free", p)
		}
	}
	// Free, valid and future-free are disjoint.
	for i := 0; i < t.n; i++ {
		free, valid, ff := t.inFree[i], t.valid.Get(i), t.futureFree.Get(i)
		if free && (valid || ff) {
			return fmt.Errorf("rename: p%d free but valid=%v futureFree=%v", i, valid, ff)
		}
		if valid && ff {
			return fmt.Errorf("rename: p%d both valid and future-free", i)
		}
	}
	return nil
}
