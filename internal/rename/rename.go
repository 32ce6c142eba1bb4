// Package rename implements the CAM-style register mapping of the paper
// (section 2, figures 3-6) and the checkpoint table that snapshots it.
//
// What the rename table stores: the map from each logical register to
// its physical register, the Valid bits (the map's image, kept for the
// one-probe Valid test), the paper's Future Free bits and the free list.
// What it derives: the CAM entry's logical name is the map's inverse and
// is not kept. A checkpoint stores the map and the Future Free bits it
// captured, its hardware cost of about two bits per physical register;
// rollback rebuilds the Valid bits from the map, and the free list from
// both, as the hardware would.
//
// Allocation is one operation: Allocate installs the new mapping and
// marks the previous one's Future Free bit. Two freeing disciplines
// follow it, matching the two processors under study:
//
//   - ROB mode: the caller frees the previous mapping with Free when
//     the redefining instruction commits (conventional); Free clears
//     the Future Free bit, which no checkpoint ever captures there.
//   - Checkpoint mode: CheckpointTable.Take captures the marked
//     registers, and they are freed together when the checkpoint owning
//     their window commits (the paper's deferred release).
//
// Unwind reverses one allocation on a tail squash under either.
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
	// rmap is the logical->physical map, the inverse of the CAM's
	// associative lookup.
	rmap [isa.NumLogical]PhysReg
	// valid marks current mappings: the image of rmap.
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
}

// New builds a rename table with nPhys physical registers and allocates
// an initial mapping for every logical register (architectural state
// must always be mapped).
func New(nPhys int) *Table {
	if nPhys < isa.NumLogical {
		panic(fmt.Sprintf("rename: %d physical registers < %d logical", nPhys, isa.NumLogical))
	}
	t := &Table{
		n:          nPhys,
		valid:      bitset.New(nPhys),
		futureFree: bitset.New(nPhys),
		freeStack:  make([]PhysReg, 0, nPhys),
		inFree:     make([]bool, nPhys),
		scratch:    bitset.New(nPhys),
	}
	// Push high to low so the first pops hand out the lowest indices,
	// matching the initial mappings below.
	for p := nPhys - 1; p >= isa.NumLogical; p-- {
		t.pushFree(PhysReg(p))
	}
	for l := 0; l < isa.NumLogical; l++ {
		t.valid.Set(l)
		t.rmap[l] = PhysReg(l)
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
	t.rmap[dest] = newP
	if prevP != PhysNone {
		t.valid.Clear(int(prevP))
		t.futureFree.Set(int(prevP))
	}
	return newP, prevP, true
}

// Free returns p to the free list at an in-order (ROB-mode) commit,
// clearing its Future Free bit.
func (t *Table) Free(p PhysReg) {
	if p == PhysNone {
		return
	}
	i := int(p)
	if t.inFree[i] {
		panic(fmt.Sprintf("rename: double free of p%d", p))
	}
	if t.valid.Get(i) {
		panic(fmt.Sprintf("rename: freeing valid mapping p%d", p))
	}
	t.futureFree.Clear(i)
	t.pushFree(p)
}

// Unwind reverses a single allocation during a tail-squash walk: the
// youngest definition of a logical register is removed, restoring prevP
// as the current mapping. Squashes must unwind in reverse program order.
// It also clears prevP's Future Free bit, which is only valid when no
// checkpoint was taken after the allocation (the caller guarantees it —
// otherwise the bit to restore lives in a checkpoint, and a full rollback
// is required).
func (t *Table) Unwind(dest isa.Reg, newP, prevP PhysReg) {
	if t.rmap[dest] != newP {
		panic(fmt.Sprintf("rename: unwind of %v expects p%d, table has p%d",
			dest, newP, t.rmap[dest]))
	}
	t.valid.Clear(int(newP))
	t.pushFree(newP)
	t.rmap[dest] = prevP
	if prevP != PhysNone {
		t.valid.Set(int(prevP))
		t.futureFree.Clear(int(prevP))
	}
}

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
