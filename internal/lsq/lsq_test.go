package lsq

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/isa"
)

// noWake is the wake function of tests that park no load.
func noWake(uint64, int) {}

func TestInsertOrderAndKinds(t *testing.T) {
	q := New[int](8)
	l := q.Insert(1, isa.Load, 0x100)
	s := q.Insert(2, isa.Store, 0x200)
	if l.Kind != KindLoad || s.Kind != KindStore {
		t.Fatal("kinds wrong")
	}
	if q.Len() != 2 {
		t.Fatal("len wrong")
	}
	st := q.Stats()
	if st.Loads != 1 || st.Stores != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestOutOfOrderInsertPanics(t *testing.T) {
	q := New[int](8)
	q.Insert(5, isa.Load, 0x100)
	defer func() {
		if recover() == nil {
			t.Error("out-of-order insert must panic")
		}
	}()
	q.Insert(4, isa.Load, 0x100)
}

func TestNonMemOpPanics(t *testing.T) {
	q := New[int](8)
	defer func() {
		if recover() == nil {
			t.Error("non-memory op must panic")
		}
	}()
	q.Insert(1, isa.IntAlu, 0x100)
}

func TestCapacity(t *testing.T) {
	q := New[int](2)
	q.Insert(1, isa.Load, 0x10)
	q.Insert(2, isa.Load, 0x20)
	if !q.Full() {
		t.Fatal("should be full")
	}
	if q.Insert(3, isa.Load, 0x30) != nil {
		t.Fatal("full queue must reject")
	}
	if q.Stats().FullStalls != 1 {
		t.Fatal("stall not counted")
	}
}

func TestForwardReady(t *testing.T) {
	q := New[int](8)
	s := q.Insert(1, isa.Store, 0x100)
	q.MarkExecuted(s, noWake)
	got, blocking := q.LookupForward(2, 0x100)
	if got != ForwardReady || blocking != nil {
		t.Fatalf("got %v (store %v), want ForwardReady", got, blocking)
	}
	if q.Stats().Forwards != 1 {
		t.Fatal("forward not counted")
	}
}

func TestForwardWaitThenReady(t *testing.T) {
	q := New[int](8)
	s := q.Insert(1, isa.Store, 0x100)
	got, blocking := q.LookupForward(2, 0x100)
	if got != ForwardWait || blocking != s {
		t.Fatalf("got %v (store %v), want ForwardWait on seq 1", got, blocking)
	}
	var fired []uint64
	q.AddWaiter(blocking, 2, 20)
	q.MarkExecuted(s, func(seq uint64, load int) { fired = append(fired, seq, uint64(load)) })
	if !slices.Equal(fired, []uint64{2, 20}) {
		t.Fatalf("woke %v, want the parked load's seq 2 and payload 20", fired)
	}
}

func TestForwardYoungestMatchingStore(t *testing.T) {
	q := New[int](8)
	s1 := q.Insert(1, isa.Store, 0x100)
	s2 := q.Insert(2, isa.Store, 0x100)
	q.MarkExecuted(s1, noWake)
	q.MarkExecuted(s2, noWake)
	// The load must see the youngest older store; both executed, so
	// ForwardReady — and critically, not a store younger than the load.
	q.Insert(3, isa.Load, 0x100)
	if got, _ := q.LookupForward(3, 0x100); got != ForwardReady {
		t.Fatalf("got %v", got)
	}
	// A load older than every store must not forward.
	if got, _ := q.LookupForward(0, 0x100); got != NoConflict {
		t.Fatalf("older load forwarded: %v", got)
	}
}

func TestForwardWaitPicksYoungestOlderStore(t *testing.T) {
	q := New[int](8)
	s1 := q.Insert(1, isa.Store, 0x100)
	s2 := q.Insert(2, isa.Store, 0x100)
	q.MarkExecuted(s1, noWake)
	// s2 (younger, unexecuted) shadows the executed s1.
	got, blocking := q.LookupForward(3, 0x100)
	if got != ForwardWait || blocking != s2 {
		t.Fatalf("got %v (store %v), want ForwardWait on seq 2", got, blocking)
	}
}

func TestNoConflictDifferentAddress(t *testing.T) {
	q := New[int](8)
	q.Insert(1, isa.Store, 0x100)
	if got, _ := q.LookupForward(2, 0x108); got != NoConflict {
		t.Fatalf("got %v, want NoConflict", got)
	}
}

func TestDrainStoresBefore(t *testing.T) {
	q := New[int](8)
	s1 := q.Insert(1, isa.Store, 0x10)
	l := q.Insert(2, isa.Load, 0x20)
	s2 := q.Insert(3, isa.Store, 0x30)
	s3 := q.Insert(4, isa.Store, 0x40)
	q.MarkExecuted(s1, noWake)
	q.MarkExecuted(s2, noWake)
	q.MarkExecuted(s3, noWake)
	var written []uint64
	for _, e := range []*Entry[int]{s1, l, s2} {
		q.Remove(e, func(addr uint64) { written = append(written, addr) })
	}
	if q.Stats().StoresDrained != 2 || !slices.Equal(written, []uint64{0x10, 0x30}) {
		t.Fatalf("drained %v", written)
	}
	if q.Len() != 1 {
		t.Fatalf("len = %d, want 1 (only seq 4 remains)", q.Len())
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDrainUnexecutedStorePanics(t *testing.T) {
	q := New[int](8)
	s := q.Insert(1, isa.Store, 0x10)
	defer func() {
		if recover() == nil {
			t.Error("draining an unexecuted store must panic")
		}
	}()
	q.Remove(s, func(uint64) {})
}

func TestRetire(t *testing.T) {
	q := New[int](8)
	l := q.Insert(1, isa.Load, 0x10)
	s := q.Insert(2, isa.Store, 0x20)
	q.MarkExecuted(s, noWake)
	var wrote []uint64
	q.Remove(l, func(a uint64) { wrote = append(wrote, a) })
	if len(wrote) != 0 {
		t.Fatal("retiring a load writes nothing")
	}
	q.Remove(s, func(a uint64) { wrote = append(wrote, a) })
	if len(wrote) != 1 || wrote[0] != 0x20 {
		t.Fatalf("store write: %v", wrote)
	}
	if q.Len() != 0 {
		t.Fatal("entries must leave the queue")
	}
}

func TestSquashYounger(t *testing.T) {
	q := New[int](8)
	q.Insert(1, isa.Load, 0x10)
	s := q.Insert(2, isa.Store, 0x20)
	l := q.Insert(3, isa.Load, 0x30)
	// A waiter on the store must be dropped with it.
	fired := false
	res, blocking := q.LookupForward(3, 0x20)
	if res != ForwardWait || blocking != s {
		t.Fatalf("got %v, want ForwardWait on the store", res)
	}
	q.AddWaiter(blocking, 3, 30)
	q.Squash(l)
	q.Squash(s)
	if q.Len() != 1 {
		t.Fatalf("len %d after squashing two of three", q.Len())
	}
	// Recycle the squashed records: a new store at the same address
	// (likely reusing the recycled entry) must not carry the dropped
	// waiter, and the old store must be gone from the forwarding index.
	s2 := q.Insert(4, isa.Store, 0x20)
	q.MarkExecuted(s2, func(uint64, int) { fired = true })
	if fired {
		t.Fatal("squashed store's waiter leaked onto a recycled entry")
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestForwardIndexAfterChurn exercises the per-address store index
// through a commit/squash/reuse cycle and cross-checks it against the
// queue invariants.
func TestForwardIndexAfterChurn(t *testing.T) {
	q := New[int](16)
	seq := uint64(0)
	insert := func(op isa.Op, addr uint64) *Entry[int] {
		seq++
		return q.Insert(seq, op, addr)
	}
	a := insert(isa.Store, 0x10)
	b := insert(isa.Store, 0x10)
	c := insert(isa.Store, 0x20)
	q.MarkExecuted(a, noWake)
	q.MarkExecuted(b, noWake)
	q.MarkExecuted(c, noWake)
	q.Remove(a, func(uint64) {})
	if got, _ := q.LookupForward(10, 0x10); got != ForwardReady {
		t.Fatalf("got %v, want forward from b", got)
	}
	q.Squash(c)
	if got, _ := q.LookupForward(10, 0x20); got != NoConflict {
		t.Fatalf("got %v, want NoConflict after squash", got)
	}
	d := insert(isa.Store, 0x20)
	q.MarkExecuted(d, noWake)
	if got, _ := q.LookupForward(10, 0x20); got != ForwardReady {
		t.Fatalf("got %v, want forward from reinserted store", got)
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestChurnAgainstModel drives the queue through thousands of random
// inserts, oldest-first retires, prefix drains and suffix squashes (the
// core's commit and squash walks: Remove oldest first, Squash youngest
// first), and after every step checks the invariants and every
// address's forwarding answer against a plain slice model of the
// resident entries.
func TestChurnAgainstModel(t *testing.T) {
	type ref struct {
		e    *Entry[int]
		seq  uint64
		kind Kind
		addr uint64
	}
	rng := rand.New(rand.NewSource(1))
	q := New[int](48)
	var model []ref // resident entries, oldest first
	seq := uint64(0)
	var wrote, want []uint64
	write := func(addr uint64) { wrote = append(wrote, addr) }
	execute := func(m []ref) {
		for _, r := range m {
			if !r.e.Executed {
				q.MarkExecuted(r.e, noWake)
			}
		}
	}
	stores := func(m []ref) (addrs []uint64) {
		for _, r := range m {
			if r.kind == KindStore {
				addrs = append(addrs, r.addr)
			}
		}
		return addrs
	}
	for step := 0; step < 20000; step++ {
		wrote, want = wrote[:0], want[:0]
		switch op := rng.Intn(10); {
		case op < 5: // insert
			seq += uint64(1 + rng.Intn(3))
			kind, mop := KindLoad, isa.Load
			if rng.Intn(2) == 0 {
				kind, mop = KindStore, isa.Store
			}
			addr := uint64(0x10 + 8*rng.Intn(6))
			e := q.Insert(seq, mop, addr)
			if (e == nil) != (len(model) == q.Cap()) {
				t.Fatalf("step %d: insert returned %v with %d resident", step, e, len(model))
			}
			if e != nil {
				model = append(model, ref{e, seq, kind, addr})
			}
		case op < 7: // retire the oldest entry
			if len(model) == 0 {
				continue
			}
			execute(model[:1])
			want = stores(model[:1])
			q.Remove(model[0].e, write)
			model = model[1:]
		case op < 8: // drain a prefix
			k := rng.Intn(len(model) + 1)
			execute(model[:k])
			want = stores(model[:k])
			for _, r := range model[:k] {
				q.Remove(r.e, write)
			}
			model = model[k:]
		case op < 9: // squash a suffix
			k := rng.Intn(len(model) + 1)
			for i := len(model) - 1; i >= k; i-- {
				q.Squash(model[i].e)
			}
			model = model[:k]
		default: // execute one entry
			if len(model) > 0 {
				i := rng.Intn(len(model))
				execute(model[i : i+1])
			}
		}
		if !slices.Equal(wrote, want) {
			t.Fatalf("step %d: wrote %v, want %v", step, wrote, want)
		}
		if q.Len() != len(model) {
			t.Fatalf("step %d: len %d, model %d", step, q.Len(), len(model))
		}
		if err := q.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		probe := seq + 1
		if len(model) > 0 {
			probe = model[rng.Intn(len(model))].seq
		}
		for addr := uint64(0x10); addr < 0x40; addr += 8 {
			wantRes, wantStore := NoConflict, (*Entry[int])(nil)
			for i := len(model) - 1; i >= 0; i-- {
				if r := model[i]; r.kind == KindStore && r.addr == addr && r.seq < probe {
					wantRes = ForwardReady
					if !r.e.Executed {
						wantRes, wantStore = ForwardWait, r.e
					}
					break
				}
			}
			if res, store := q.LookupForward(probe, addr); res != wantRes || store != wantStore {
				t.Fatalf("step %d: LookupForward(%d, %#x) = %v, %v; want %v, %v",
					step, probe, addr, res, store, wantRes, wantStore)
			}
		}
	}
}
