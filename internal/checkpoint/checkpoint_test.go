package checkpoint

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/rename"
)

func paperPolicy() Policy {
	return Policy{BranchInterval: 64, MaxInterval: 512, MaxStores: 64}
}

func newTableWithRename(t *testing.T) (*Table, *rename.Table) {
	t.Helper()
	return NewTable(8, paperPolicy()), rename.New(128)
}

// take creates a checkpoint, failing the test if the table is full.
func take(t *testing.T, ct *Table, rt *rename.Table, seq uint64, pos int64) *Entry {
	t.Helper()
	e := ct.Take(seq, pos, rt.TakeSnapshot(), 0)
	if e == nil {
		t.Fatal("unexpected checkpoint-table full")
	}
	return e
}

func TestEmptyTableAlwaysTakes(t *testing.T) {
	ct, _ := newTableWithRename(t)
	if !ct.ShouldTake(isa.IntAlu) {
		t.Fatal("empty table must force a checkpoint")
	}
}

func TestBranchHeuristic(t *testing.T) {
	ct, rt := newTableWithRename(t)
	e := take(t, ct, rt, 0, 0)
	for i := 0; i < 63; i++ {
		ct.Associate(e, isa.IntAlu)
	}
	if ct.ShouldTake(isa.Branch) {
		t.Fatal("63 instructions: branch must not trigger yet")
	}
	ct.Associate(e, isa.IntAlu)
	if !ct.ShouldTake(isa.Branch) {
		t.Fatal("first branch after 64 instructions must trigger")
	}
	if ct.ShouldTake(isa.IntAlu) {
		t.Fatal("non-branches must not trigger the branch rule")
	}
}

func TestMaxIntervalHeuristic(t *testing.T) {
	ct, rt := newTableWithRename(t)
	e := take(t, ct, rt, 0, 0)
	for i := 0; i < 512; i++ {
		ct.Associate(e, isa.FPAlu)
	}
	if !ct.ShouldTake(isa.FPAlu) {
		t.Fatal("512 instructions must force a checkpoint at any op")
	}
}

func TestStoreHeuristic(t *testing.T) {
	ct, rt := newTableWithRename(t)
	e := take(t, ct, rt, 0, 0)
	for i := 0; i < 64; i++ {
		ct.Associate(e, isa.Store)
	}
	if !ct.ShouldTake(isa.Store) {
		t.Fatal("64 stores must force a checkpoint at the next store")
	}
	if ct.ShouldTake(isa.FPAlu) {
		t.Fatal("the store rule only fires at stores")
	}
}

func TestTakeFullStall(t *testing.T) {
	ct, rt := newTableWithRename(t)
	for i := uint64(0); i < 8; i++ {
		take(t, ct, rt, i*100, int64(i*100))
	}
	if !ct.Full() {
		t.Fatal("table should be full")
	}
	if e := ct.Take(900, 900, rt.TakeSnapshot(), 0); e != nil {
		t.Fatal("take on a full table must fail")
	}
}

func TestCommitFlow(t *testing.T) {
	ct, rt := newTableWithRename(t)
	e0 := take(t, ct, rt, 0, 0)
	ct.Associate(e0, isa.IntAlu)
	ct.Associate(e0, isa.Store)

	if ct.CanCommit() {
		t.Fatal("open window (no younger checkpoint) must not commit")
	}
	rt.Allocate(isa.IntReg(1)) // superseded mapping captured by e1
	e1 := take(t, ct, rt, 10, 10)
	if ct.CanCommit() {
		t.Fatal("window with pending instructions must not commit")
	}
	ct.Finished(e0)
	ct.Finished(e0)
	if !ct.CanCommit() {
		t.Fatal("closed, finished window must commit")
	}
	got, ff, endSeq := ct.Commit()
	if got != e0 {
		t.Fatal("commit must retire the oldest")
	}
	if endSeq != 10 {
		t.Fatalf("endSeq = %d, want e1.StartSeq", endSeq)
	}
	if ff.Count() != 1 {
		t.Fatalf("future-free count = %d, want 1 (the superseded mapping)", ff.Count())
	}
	if ct.Oldest() != e1 {
		t.Fatal("e1 should now be oldest")
	}
}

func TestCommitPanicsWhenNotReady(t *testing.T) {
	ct, rt := newTableWithRename(t)
	e := take(t, ct, rt, 0, 0)
	ct.Associate(e, isa.IntAlu)
	take(t, ct, rt, 5, 5)
	defer func() {
		if recover() == nil {
			t.Error("commit with pending instructions must panic")
		}
	}()
	ct.Commit()
}

func TestFinishedUnderflowPanics(t *testing.T) {
	ct, rt := newTableWithRename(t)
	e := take(t, ct, rt, 0, 0)
	defer func() {
		if recover() == nil {
			t.Error("finishing more than associated must panic")
		}
	}()
	ct.Finished(e)
}

func TestSquashAccounting(t *testing.T) {
	ct, rt := newTableWithRename(t)
	e := take(t, ct, rt, 0, 0)
	ct.Associate(e, isa.Store)
	ct.Associate(e, isa.IntAlu)
	ct.Finished(e) // the store finished
	ct.Squashed(e, isa.IntAlu)
	ct.SquashedDone(e, isa.Store)
	if e.Pending != 0 || e.Insts != 0 || e.Stores != 0 {
		t.Fatalf("accounting after squash: %+v", e)
	}
}

func TestRollback(t *testing.T) {
	ct, rt := newTableWithRename(t)
	e0 := take(t, ct, rt, 0, 0)
	ct.Associate(e0, isa.IntAlu)
	rt.Allocate(isa.IntReg(1))
	e1 := take(t, ct, rt, 100, 100)
	ct.Associate(e1, isa.FPAlu)
	rt.Allocate(isa.FPReg(2))
	e2 := take(t, ct, rt, 200, 200)
	ct.Associate(e2, isa.FPAlu)

	pending := ct.Rollback(e1)
	if ct.Len() != 2 {
		t.Fatalf("live checkpoints = %d, want 2", ct.Len())
	}
	if ct.Youngest() != e1 {
		t.Fatal("rollback target must become youngest")
	}
	if e1.Pending != 0 || e1.Insts != 0 {
		t.Fatal("target window must reset")
	}
	// Pending frees: e1's captured set (owed to e0's commit).
	if len(pending) != 1 {
		t.Fatalf("pending frees = %d, want 1", len(pending))
	}
	if e0.Insts != 1 {
		t.Fatal("older window must be untouched")
	}
	if err := ct.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRollbackUnknownTargetPanics(t *testing.T) {
	ct, rt := newTableWithRename(t)
	take(t, ct, rt, 0, 0)
	stray := &Entry{ID: 99}
	defer func() {
		if recover() == nil {
			t.Error("rollback to a dead checkpoint must panic")
		}
	}()
	ct.Rollback(stray)
}

func TestEntriesOrderingInvariant(t *testing.T) {
	ct, rt := newTableWithRename(t)
	for i := uint64(0); i < 5; i++ {
		e := take(t, ct, rt, i*50, int64(i*50))
		ct.Associate(e, isa.IntAlu)
		ct.Finished(e)
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
	for _, fn := range []func(){
		func() { NewTable(0, paperPolicy()) },
		func() { NewTable(4, Policy{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
