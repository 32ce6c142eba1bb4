// Black-box tests of the checkpoint table, rename.CheckpointTable: this
// package has no code of its own, so the tests reach the table only
// through the surface the core uses.
package checkpoint

import (
	"math/rand"
	"testing"

	"repro/internal/isa"
	"repro/internal/rename"
)

func newTableWithRename(t *testing.T) (*rename.CheckpointTable, *rename.Table) {
	t.Helper()
	rt := rename.New(128)
	return rename.NewCheckpointTable(8, rt), rt
}

// take creates a checkpoint, failing the test if the table is full.
func take(t *testing.T, ct *rename.CheckpointTable, seq uint64, pos int64) *rename.Checkpoint {
	t.Helper()
	e := ct.Take(seq, pos, 0)
	if e == nil {
		t.Fatal("unexpected checkpoint-table full")
	}
	return e
}

// The taking rule (an empty table always takes; the paper's first
// branch after 64 instructions, any op after 512, a store after 64
// stores) is decided in core by checkpointPolicy.shouldTake, whose
// decisions core's TestCheckpointTakingRule checks case by case. The
// four heuristic tests below check the table's half of each clause: the
// state of the youngest checkpoint that the rule reads.

// TestEmptyTableAlwaysTakes: the empty-table clause ("there must always
// exist a checkpoint for our mechanism to work") fires when Youngest is
// nil. Only a table that has never taken is empty: Commit keeps the
// younger checkpoint, Rollback keeps its target, and a take refused on
// a full table changes nothing.
func TestEmptyTableAlwaysTakes(t *testing.T) {
	ct, _ := newTableWithRename(t)
	if ct.Youngest() != nil || ct.Len() != 0 {
		t.Fatal("a new table must be empty, so its first instruction takes")
	}
	e0 := take(t, ct, 0, 0)
	if ct.Youngest() != e0 {
		t.Fatal("the first take must become the youngest")
	}
	e1 := take(t, ct, 10, 10)
	for ct.CanCommit() {
		ct.Commit()
	}
	if ct.Len() != 1 || ct.Youngest() != e1 {
		t.Fatalf("after commit: %d live, want only e1", ct.Len())
	}
	ct.Rollback(e1)
	if ct.Len() != 1 || ct.Youngest() != e1 {
		t.Fatalf("after rollback: %d live, want only e1", ct.Len())
	}
	for seq := uint64(20); !ct.Full(); seq += 10 {
		take(t, ct, seq, int64(seq))
	}
	y := ct.Youngest()
	if ct.Take(900, 900, 0) != nil || ct.Youngest() != y {
		t.Fatal("a refused take must leave the youngest checkpoint alone")
	}
}

// TestBranchHeuristic: the branch clause fires once the youngest window
// holds 64 instructions. Insts counts every associated instruction,
// drops those a partial squash (pseudo-ROB branch recovery) removes, so
// wrong-path instructions never count toward the correct path's 64, and
// starts from zero in the window the branch's checkpoint opens.
func TestBranchHeuristic(t *testing.T) {
	ct, _ := newTableWithRename(t)
	e := take(t, ct, 0, 0)
	for i := 0; i < 62; i++ {
		e.Associate(isa.IntAlu)
	}
	e.Associate(isa.Branch) // mispredicted
	for _, op := range []isa.Op{isa.IntAlu, isa.Load, isa.FPAlu} {
		e.Associate(op) // its wrong path
	}
	e.Complete() // one wrong-path instruction completed before recovery
	e.Squash(isa.IntAlu, true)
	e.Squash(isa.Load, false)
	e.Squash(isa.FPAlu, false)
	if e.Insts != 63 {
		t.Fatalf("after recovery the window holds %d instructions, want the correct path's 63", e.Insts)
	}
	e.Associate(isa.IntAlu)
	if ct.Youngest() != e || e.Insts != 64 {
		t.Fatalf("the youngest window holds %d instructions, want 64", e.Insts)
	}
	b := take(t, ct, 64, 64) // the first branch after 64 instructions
	if ct.Youngest() != b || b.Insts != 0 || e.Insts != 64 {
		t.Fatalf("the branch's window must start empty (%d) and close e's at 64 (%d)", b.Insts, e.Insts)
	}
}

// TestMaxIntervalHeuristic: the unconditional clause fires once the
// youngest window holds 512 instructions of any kind, so Insts counts
// every op class alike; a rollback reopens the target's window at zero,
// as its instructions will be fetched and counted again.
func TestMaxIntervalHeuristic(t *testing.T) {
	ct, _ := newTableWithRename(t)
	e := take(t, ct, 0, 0)
	ops := []isa.Op{isa.FPAlu, isa.IntAlu, isa.Load, isa.Store, isa.Branch}
	for i := 0; i < 512; i++ {
		e.Associate(ops[i%len(ops)])
	}
	if ct.Youngest() != e || e.Insts != 512 {
		t.Fatalf("the youngest window holds %d instructions, want 512", e.Insts)
	}
	y := take(t, ct, 512, 512)
	y.Associate(isa.FPAlu)
	ct.Rollback(e)
	if ct.Youngest() != e || e.Insts != 0 || e.Stores != 0 || e.Pending != 0 {
		t.Fatalf("the reopened window must count from zero: %+v", e)
	}
}

// TestStoreHeuristic: the store clause (LSQ deadlock avoidance) fires at
// a store once the youngest window holds 64 stores. Stores counts stores
// only, so interleaved FP ops leave it alone, and a squashed store
// leaves it whether or not it had finished.
func TestStoreHeuristic(t *testing.T) {
	ct, _ := newTableWithRename(t)
	e := take(t, ct, 0, 0)
	for i := 0; i < 64; i++ {
		e.Associate(isa.Store)
		e.Associate(isa.FPAlu)
	}
	if e.Stores != 64 || e.Insts != 128 {
		t.Fatalf("stores = %d, insts = %d, want 64 and 128", e.Stores, e.Insts)
	}
	e.Complete() // a store completed
	e.Squash(isa.Store, true)
	e.Squash(isa.Store, false)
	if e.Stores != 62 {
		t.Fatalf("stores after squashing two = %d, want 62", e.Stores)
	}
	e.Associate(isa.Store)
	e.Associate(isa.Store)
	if ct.Youngest() != e || e.Stores != 64 {
		t.Fatalf("the youngest window holds %d stores, want 64", e.Stores)
	}
	if s := take(t, ct, 128, 128); s.Stores != 0 {
		t.Fatalf("the store's window must start with no stores, has %d", s.Stores)
	}
}

func TestTakeFullStall(t *testing.T) {
	ct, rt := newTableWithRename(t)
	for i := uint64(0); i < 8; i++ {
		take(t, ct, i*100, int64(i*100))
	}
	if !ct.Full() {
		t.Fatal("table should be full")
	}
	_, prev, _ := rt.Allocate(isa.IntReg(1))
	if e := ct.Take(900, 900, 0); e != nil {
		t.Fatal("take on a full table must fail")
	}
	if !rt.FutureFreePending(prev) {
		t.Fatal("a refused take must not snapshot the rename table")
	}
}

// TestTakeReusesRingSlots: the table is a fixed ring whose slots own
// their snapshot storage, so once every slot has been taken, takes,
// commits and rollbacks allocate nothing.
func TestTakeReusesRingSlots(t *testing.T) {
	ct, rt := newTableWithRename(t)
	var seq uint64
	lap := func() {
		for !ct.Full() {
			rt.Allocate(isa.IntReg(int(seq % 8)))
			take(t, ct, seq, int64(seq))
			seq++
		}
		ct.Rollback(ct.At(ct.Len() / 2))
		for ct.CanCommit() {
			ct.Commit()
		}
	}
	lap() // the first lap takes every slot once
	if allocs := testing.AllocsPerRun(20, lap); allocs != 0 {
		t.Fatalf("a lap of takes, a rollback and commits allocated %.1f times, want 0", allocs)
	}
	if err := rt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCommitFlow(t *testing.T) {
	ct, rt := newTableWithRename(t)
	e0 := take(t, ct, 0, 0)
	e0.Associate(isa.IntAlu)
	e0.Associate(isa.Store)

	if ct.CanCommit() {
		t.Fatal("open window (no younger checkpoint) must not commit")
	}
	_, old, _ := rt.Allocate(isa.IntReg(1)) // superseded mapping captured by e1
	e1 := take(t, ct, 10, 10)
	if ct.CanCommit() {
		t.Fatal("window with pending instructions must not commit")
	}
	e0.Complete()
	e0.Complete()
	if !ct.CanCommit() {
		t.Fatal("closed, finished window must commit")
	}
	free := rt.FreeCount()
	if endSeq := ct.Commit(); endSeq != 10 {
		t.Fatalf("endSeq = %d, want e1.StartSeq", endSeq)
	}
	if !rt.IsFree(old) || rt.FreeCount() != free+1 {
		t.Fatalf("free registers %d -> %d, want the superseded p%d back", free, rt.FreeCount(), old)
	}
	if ct.Oldest() != e1 {
		t.Fatal("e1 should now be oldest")
	}
	if err := rt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCommitPanicsWhenNotReady(t *testing.T) {
	ct, _ := newTableWithRename(t)
	e := take(t, ct, 0, 0)
	e.Associate(isa.IntAlu)
	take(t, ct, 5, 5)
	defer func() {
		if recover() == nil {
			t.Error("commit with pending instructions must panic")
		}
	}()
	ct.Commit()
}

func TestFinishedUnderflowPanics(t *testing.T) {
	ct, _ := newTableWithRename(t)
	e := take(t, ct, 0, 0)
	defer func() {
		if recover() == nil {
			t.Error("finishing more than associated must panic")
		}
	}()
	e.Complete()
}

func TestSquashAccounting(t *testing.T) {
	ct, _ := newTableWithRename(t)
	e := take(t, ct, 0, 0)
	e.Associate(isa.Store)
	e.Associate(isa.IntAlu)
	e.Complete() // the store finished
	e.Squash(isa.IntAlu, false)
	e.Squash(isa.Store, true)
	if e.Pending != 0 || e.Insts != 0 || e.Stores != 0 {
		t.Fatalf("accounting after squash: %+v", e)
	}
}

func TestRollback(t *testing.T) {
	ct, rt := newTableWithRename(t)
	e0 := take(t, ct, 0, 0)
	e0.Associate(isa.IntAlu)
	_, owed, _ := rt.Allocate(isa.IntReg(1))
	e1 := take(t, ct, 100, 100)
	e1.Associate(isa.FPAlu)
	f2 := rt.Lookup(isa.FPReg(2))
	rt.Allocate(isa.FPReg(2))
	e2 := take(t, ct, 200, 200)
	e2.Associate(isa.FPAlu)
	rt.Allocate(isa.FPReg(3))

	ct.Rollback(e1)
	if ct.Len() != 2 {
		t.Fatalf("live checkpoints = %d, want 2", ct.Len())
	}
	if ct.Youngest() != e1 {
		t.Fatal("rollback target must become youngest")
	}
	if e1.Pending != 0 || e1.Insts != 0 {
		t.Fatal("target window must reset")
	}
	if e0.Insts != 1 {
		t.Fatal("older window must be untouched")
	}
	// The rename table is back at e1's snapshot: f2's allocation made
	// after it is undone, and e1's captured set (owed to e0's commit)
	// stays out of the free list.
	if got := rt.Lookup(isa.FPReg(2)); got != f2 {
		t.Fatalf("f2 maps to p%d after rollback, want its snapshot mapping p%d", got, f2)
	}
	if free := 128 - isa.NumLogical - 1; rt.FreeCount() != free {
		t.Fatalf("free registers = %d, want %d (all but the owed p%d)", rt.FreeCount(), free, owed)
	}
	if err := ct.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := rt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRollbackUnknownTargetPanics(t *testing.T) {
	ct, _ := newTableWithRename(t)
	take(t, ct, 0, 0)
	stray := &rename.Checkpoint{ID: 99}
	defer func() {
		if recover() == nil {
			t.Error("rollback to a dead checkpoint must panic")
		}
	}()
	ct.Rollback(stray)
}

func TestEntriesOrderingInvariant(t *testing.T) {
	ct, _ := newTableWithRename(t)
	for i := uint64(0); i < 5; i++ {
		e := take(t, ct, i*50, int64(i*50))
		e.Associate(isa.IntAlu)
		e.Complete()
	}
	if err := ct.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for ct.CanCommit() {
		ct.Commit()
	}
	if ct.Len() != 1 {
		t.Fatalf("after draining, one open window remains; got %d", ct.Len())
	}
}

func TestNewTablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	rename.NewCheckpointTable(0, rename.New(128))
}

// FuzzCheckpointTable drives the table and a small rename table through
// legal sequences the fuzz bytes choose (take; allocate and associate;
// finish; commit everything committable; roll back to a live entry) and
// checks after every step both tables' invariants, register
// conservation among them (CheckpointTable.CheckInvariants: a register
// is free exactly when it is not valid, not future-free and not owed to
// a live checkpoint's commit). The seed corpus is 300 seeded random
// walks of 400 steps.
func FuzzCheckpointTable(f *testing.F) {
	for seed := int64(0); seed < 300; seed++ {
		ops := make([]byte, 800)
		rand.New(rand.NewSource(seed)).Read(ops)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		const phys = isa.NumLogical + 16
		rt := rename.New(phys)
		ct := rename.NewCheckpointTable(4, rt)
		var seq uint64
		var unfinished []*rename.Checkpoint // the checkpoint of each unfinished instruction
		for i := 0; i+1 < len(ops); i += 2 {
			arg := int(ops[i+1])
			switch ops[i] % 5 {
			case 0:
				ct.Take(seq, int64(seq), 0)
			case 1:
				// The core dispatches nothing before the first checkpoint.
				y := ct.Youngest()
				if y == nil {
					break
				}
				if _, _, ok := rt.Allocate(isa.Reg(arg % isa.NumLogical)); ok {
					y.Associate(isa.IntAlu)
					unfinished = append(unfinished, y)
					seq++
				}
			case 2:
				if n := len(unfinished); n > 0 {
					k := arg % n
					unfinished[k].Complete()
					unfinished[k] = unfinished[n-1]
					unfinished = unfinished[:n-1]
				}
			case 3:
				for ct.CanCommit() {
					ct.Commit()
				}
			case 4:
				if ct.Len() == 0 {
					break
				}
				target := ct.At(arg % ct.Len())
				ct.Rollback(target)
				kept := unfinished[:0]
				for _, e := range unfinished {
					if e.ID < target.ID {
						kept = append(kept, e)
					}
				}
				unfinished = kept
			}
			for _, err := range []error{ct.CheckInvariants(), rt.CheckInvariants()} {
				if err != nil {
					t.Fatalf("step %d (op %d): %v", i/2, ops[i]%5, err)
				}
			}
		}
	})
}
