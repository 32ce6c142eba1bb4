package rename

import (
	"math/rand"
	"testing"

	"repro/internal/isa"
)

func newTable(t *testing.T) *Table {
	t.Helper()
	tbl := New(128)
	if err := tbl.CheckInvariants(); err != nil {
		t.Fatalf("fresh table: %v", err)
	}
	return tbl
}

func TestInitialMapping(t *testing.T) {
	tbl := newTable(t)
	if tbl.FreeCount() != 128-isa.NumLogical {
		t.Fatalf("free count = %d", tbl.FreeCount())
	}
	seen := map[PhysReg]bool{}
	for l := 0; l < isa.NumLogical; l++ {
		p := tbl.Lookup(isa.Reg(l))
		if p == PhysNone || !tbl.Valid(p) {
			t.Fatalf("logical %v unmapped", isa.Reg(l))
		}
		if seen[p] {
			t.Fatalf("%v shares p%d with another logical register", isa.Reg(l), p)
		}
		seen[p] = true
	}
	if tbl.Lookup(isa.RegNone) != PhysNone {
		t.Error("Lookup(RegNone) must be PhysNone")
	}
}

func TestAllocateSetsFutureFree(t *testing.T) {
	tbl := newTable(t)
	dest := isa.IntReg(1)
	old := tbl.Lookup(dest)
	newP, prevP, ok := tbl.Allocate(dest)
	if !ok || prevP != old {
		t.Fatalf("allocate: new=%v prev=%v ok=%v", newP, prevP, ok)
	}
	if tbl.Lookup(dest) != newP {
		t.Error("mapping not updated")
	}
	if tbl.Valid(old) {
		t.Error("previous mapping must lose its valid bit")
	}
	if !tbl.FutureFreePending(old) {
		t.Error("previous mapping must be marked future-free (figure 4)")
	}
	if err := tbl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleRedefinition(t *testing.T) {
	// Figure 5: two live old mappings of the same logical register,
	// both awaiting the next checkpoint commit.
	tbl := newTable(t)
	dest := isa.IntReg(1)
	p0 := tbl.Lookup(dest)
	p1, _, _ := tbl.Allocate(dest)
	p2, prev, _ := tbl.Allocate(dest)
	if prev != p1 {
		t.Fatalf("second allocate prev = %v, want %v", prev, p1)
	}
	if !tbl.FutureFreePending(p0) || !tbl.FutureFreePending(p1) {
		t.Error("both superseded mappings must be future-free")
	}
	if tbl.Lookup(dest) != p2 {
		t.Error("current mapping wrong")
	}
}

func TestSnapshotClearsFutureFree(t *testing.T) {
	tbl := newTable(t)
	p0 := tbl.Lookup(isa.IntReg(2))
	tbl.Allocate(isa.IntReg(2))
	e := NewCheckpointTable(8, tbl).Take(0, 0, 0)
	if tbl.FutureFreePending(p0) {
		t.Error("a take must clear the live future-free bits")
	}
	if !e.futureFree.Get(int(p0)) {
		t.Error("the checkpoint must capture the superseded mapping")
	}
}

// TestCommitFutureFree: a checkpoint's commit frees the Future Free set
// the next checkpoint captured, and nothing else.
func TestCommitFutureFree(t *testing.T) {
	tbl := newTable(t)
	ct := NewCheckpointTable(8, tbl)
	ct.Take(0, 0, 0)
	p0 := tbl.Lookup(isa.IntReg(3))
	tbl.Allocate(isa.IntReg(3))
	ct.Take(1, 1, 0)
	tbl.Allocate(isa.IntReg(3)) // superseded in the open window: still owed
	free := tbl.FreeCount()
	ct.Commit()
	if tbl.FreeCount() != free+1 || !tbl.IsFree(p0) {
		t.Fatalf("free count %d, want %d with p%d back", tbl.FreeCount(), free+1, p0)
	}
	if err := tbl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestAllocateROBAndFree: under the ROB discipline the caller frees the
// superseded mapping at commit, and Free clears the Future Free bit
// Allocate set on it.
func TestAllocateROBAndFree(t *testing.T) {
	tbl := newTable(t)
	dest := isa.FPReg(4)
	old := tbl.Lookup(dest)
	newP, prevP, ok := tbl.Allocate(dest)
	if !ok || prevP != old {
		t.Fatalf("Allocate: %v %v %v", newP, prevP, ok)
	}
	free := tbl.FreeCount()
	tbl.Free(prevP)
	if tbl.FreeCount() != free+1 {
		t.Error("Free must return the register")
	}
	if tbl.FutureFreePending(old) {
		t.Error("Free must clear the freed register's Future Free bit")
	}
	if err := tbl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFreePanics(t *testing.T) {
	tbl := newTable(t)
	p, _, _ := tbl.Allocate(isa.IntReg(0))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("freeing a valid mapping must panic")
			}
		}()
		tbl.Free(p)
	}()
}

func TestUnwindROB(t *testing.T) {
	tbl := newTable(t)
	dest := isa.IntReg(5)
	old := tbl.Lookup(dest)
	n1, p1, _ := tbl.Allocate(dest)
	n2, p2, _ := tbl.Allocate(dest)
	// Unwind in reverse order.
	tbl.Unwind(dest, n2, p2)
	if tbl.Lookup(dest) != n1 {
		t.Fatal("first unwind should restore the middle mapping")
	}
	tbl.Unwind(dest, n1, p1)
	if tbl.Lookup(dest) != old {
		t.Fatal("second unwind should restore the original mapping")
	}
	if err := tbl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUnwindCheckpointed(t *testing.T) {
	tbl := newTable(t)
	dest := isa.FPReg(6)
	old := tbl.Lookup(dest)
	n1, p1, _ := tbl.Allocate(dest)
	if !tbl.FutureFreePending(old) {
		t.Fatal("precondition: future-free set")
	}
	tbl.Unwind(dest, n1, p1)
	if tbl.Lookup(dest) != old {
		t.Fatal("mapping not restored")
	}
	if tbl.FutureFreePending(old) {
		t.Error("unwind must clear the future-free bit it set")
	}
	if !tbl.Valid(old) {
		t.Error("unwind must restore the valid bit")
	}
	if err := tbl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRollback: a rollback restores the map a checkpoint captured and
// rebuilds the Valid bits as its image: every mapping made after the
// take loses its Valid bit and returns to the free list.
func TestRollback(t *testing.T) {
	tbl := newTable(t)
	ct := NewCheckpointTable(8, tbl)
	d1, d2 := isa.IntReg(1), isa.FPReg(2)
	tbl.Allocate(d1)
	e := ct.Take(0, 0, 0)
	mapped1, mapped2 := tbl.Lookup(d1), tbl.Lookup(d2)

	// Post-take work to be rolled back.
	var later []PhysReg
	for _, d := range []isa.Reg{d1, d2, d2} {
		p, _, _ := tbl.Allocate(d)
		later = append(later, p)
	}

	ct.Rollback(e)
	if tbl.Lookup(d1) != mapped1 || tbl.Lookup(d2) != mapped2 {
		t.Error("mappings not restored")
	}
	if !tbl.Valid(mapped1) || !tbl.Valid(mapped2) {
		t.Error("restored mappings must be valid")
	}
	for _, p := range later {
		if tbl.Valid(p) || !tbl.IsFree(p) {
			t.Errorf("p%d, mapped after the take, must be free and not valid", p)
		}
	}
	// The only live checkpoint owes no commit, so every register off
	// the map is free, the one superseded before the take included.
	if free := 128 - isa.NumLogical; tbl.FreeCount() != free {
		t.Errorf("free count %d, want %d", tbl.FreeCount(), free)
	}
	if err := tbl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRollbackWithPendingFrees(t *testing.T) {
	// Registers captured in a younger checkpoint's future-free set must
	// not return to the free list on rollback (an older window still
	// owes them a deferred free).
	tbl := newTable(t)
	ct := NewCheckpointTable(8, tbl)
	ct.Take(0, 0, 0)
	p0 := tbl.Lookup(isa.IntReg(1))
	tbl.Allocate(isa.IntReg(1)) // p0 superseded in window 0
	ct.Take(1, 1, 0)            // checkpoint 1 captures {p0}
	target := ct.Take(2, 2, 0)

	tbl.Allocate(isa.IntReg(2))
	ct.Rollback(target)
	if err := tbl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// p0 is invalid but pending a free: it must NOT be on the free list.
	if tbl.Valid(p0) || tbl.IsFree(p0) {
		t.Fatal("p0 must be neither valid nor free")
	}
	free := tbl.FreeCount()
	ct.Commit()
	if tbl.FreeCount() != free+1 || !tbl.IsFree(p0) {
		t.Error("p0 should only free via the deferred commit")
	}
}

func TestExhaustion(t *testing.T) {
	tbl := New(isa.NumLogical + 2)
	if _, _, ok := tbl.Allocate(isa.IntReg(0)); !ok {
		t.Fatal("first allocate should succeed")
	}
	if _, _, ok := tbl.Allocate(isa.IntReg(1)); !ok {
		t.Fatal("second allocate should succeed")
	}
	if _, _, ok := tbl.Allocate(isa.IntReg(2)); ok {
		t.Fatal("third allocate must fail: free list empty")
	}
}

func TestNewPanicsOnTooFewRegisters(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(isa.NumLogical - 1)
}

// TestRandomizedCheckpointing drives the rename table and a checkpoint
// table through random allocate/take/commit/rollback sequences,
// mimicking the processor's usage, and checks invariants throughout.
// This is the rename-level model of the paper's whole mechanism, and
// the checkpoint table's invariants include register conservation;
// FuzzCheckpointTable, in internal/checkpoint, adds the window counters.
func TestRandomizedCheckpointing(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		tbl := New(96)
		ct := NewCheckpointTable(8, tbl)
		ct.Take(0, 0, 0)

		for step := 1; step <= 400; step++ {
			switch r := rng.Intn(10); {
			case r < 6: // rename
				dest := isa.Reg(rng.Intn(isa.NumLogical))
				tbl.Allocate(dest)
			case r < 7: // take a checkpoint, unless the table is full
				ct.Take(uint64(step), int64(step), 0)
			case r < 8: // commit the oldest window
				if ct.CanCommit() {
					ct.Commit()
				}
			default: // roll back to a random live checkpoint
				if ct.Len() >= 2 {
					ct.Rollback(ct.At(1 + rng.Intn(ct.Len()-1)))
				}
			}
			if tbl.FreeCount() == 0 {
				// Out of registers: commit or stop, like the pipeline.
				if !ct.CanCommit() {
					break
				}
				ct.Commit()
			}
			for _, err := range []error{tbl.CheckInvariants(), ct.CheckInvariants()} {
				if err != nil {
					t.Fatalf("trial %d step %d: %v", trial, step, err)
				}
			}
		}
	}
}
