package queue

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/rename"
)

// ent builds a standalone entry for tests; the pipeline embeds entries
// in its instruction records instead.
func ent(payload string) *IQEntry[string] {
	e := &IQEntry[string]{}
	e.Payload = payload
	return e
}

// pop takes the oldest ready entry the way the issue stage does, or
// returns nil when none is ready.
func pop(q *IQ[string]) *IQEntry[string] {
	e := q.PeekReady()
	if e != nil {
		q.Take(e)
	}
	return e
}

func TestIQInsertPopOrder(t *testing.T) {
	q := NewIQ[string](8)
	// Ready entries pop oldest-first regardless of insertion order of
	// readiness.
	if !q.Insert(ent("c"), 3, 0) || !q.Insert(ent("a"), 1, 0) || !q.Insert(ent("b"), 2, 0) {
		t.Fatal("insert failed")
	}
	var got []uint64
	for {
		e := pop(q)
		if e == nil {
			break
		}
		got = append(got, e.Seq)
	}
	want := []uint64{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
	if q.Len() != 0 {
		t.Fatal("popped entries must free their slots")
	}
}

func TestIQWakeup(t *testing.T) {
	q := NewIQ[string](4)
	e := ent("x")
	q.Insert(e, 1, 2)
	if q.PeekReady() != nil {
		t.Fatal("entry with pending sources must not be ready")
	}
	q.Wake(e)
	if q.PeekReady() != nil {
		t.Fatal("one of two sources is not enough")
	}
	q.Wake(e)
	if q.PeekReady() != e {
		t.Fatal("entry should be ready after both wakes")
	}
	if got := pop(q); got != e {
		t.Fatal("wrong entry popped")
	}
}

// TestIQTakeChecksFront: Take accepts only the entry PeekReady returned.
func TestIQTakeChecksFront(t *testing.T) {
	q := NewIQ[string](4)
	a, b := ent("a"), ent("b")
	q.Insert(a, 1, 0)
	q.Insert(b, 2, 0)
	defer func() {
		if recover() == nil {
			t.Error("taking an entry behind the ready front must panic")
		}
	}()
	q.Take(b)
}

func TestIQWakePanics(t *testing.T) {
	q := NewIQ[string](4)
	e := ent("x")
	q.Insert(e, 1, 0)
	defer func() {
		if recover() == nil {
			t.Error("waking a ready entry must panic (underflow)")
		}
	}()
	q.Wake(e)
}

func TestIQCapacity(t *testing.T) {
	q := NewIQ[string](2)
	q.Insert(ent("a"), 1, 1)
	q.Insert(ent("b"), 2, 1)
	if !q.Full() || q.Len() != 2 {
		t.Fatal("queue should be full")
	}
	if q.Insert(ent("c"), 3, 1) {
		t.Fatal("insert into a full queue must fail")
	}
}

func TestIQUnissue(t *testing.T) {
	q := NewIQ[string](4)
	q.Insert(ent("a"), 5, 0)
	e := pop(q)
	if q.Len() != 0 {
		t.Fatal("pop must free the slot")
	}
	q.Unissue(e)
	if q.Len() != 1 || q.PeekReady() != e {
		t.Fatal("unissue must restore the entry")
	}
	if got := pop(q); got != e {
		t.Fatal("unissued entry must be selectable again")
	}
}

func TestIQRemove(t *testing.T) {
	q := NewIQ[string](4)
	eWait := ent("w")
	eReady := ent("r")
	q.Insert(eWait, 1, 1)
	q.Insert(eReady, 2, 0)
	q.Remove(eWait)
	q.Remove(eReady)
	if q.Len() != 0 || q.PeekReady() != nil {
		t.Fatal("remove must handle both waiting and ready entries")
	}
	q.Remove(eWait)
	if q.Len() != 0 {
		t.Fatal("double remove must be a no-op")
	}
}

func TestIQReinsertAfterRemove(t *testing.T) {
	// An embedded entry cycles through insert/remove/insert (the
	// SLIQ-move-and-wake path); residence state must reset each time.
	q := NewIQ[string](4)
	e := ent("x")
	q.Insert(e, 1, 1)
	q.Remove(e)
	if e.Resident() {
		t.Fatal("removed entry must not be resident")
	}
	if !q.Insert(e, 7, 0) {
		t.Fatal("reinsert failed")
	}
	if got := pop(q); got != e || got.Seq != 7 {
		t.Fatalf("reinserted entry wrong: %v", got)
	}

	// A ready entry removed (squashed) leaves its ready item behind. The
	// record comes back under a new seq, either as it is or zeroed the
	// way the pipeline's record pool hands it out, waits on a source and
	// is woken before anything peeks: only the seq tells the stale item
	// from the live one. The stale item must never surface, and the
	// entry pops exactly once.
	for _, zero := range []bool{false, true} {
		q := NewIQ[string](4)
		e, older := ent("x"), ent("older")
		q.Insert(e, 3, 0)
		q.Remove(e)
		if zero {
			*e = IQEntry[string]{Payload: "x"}
		}
		q.Insert(older, 5, 0)
		q.Insert(e, 9, 1)
		q.Wake(e)
		for _, want := range []*IQEntry[string]{older, e} {
			if got := pop(q); got != want {
				t.Fatalf("zero=%v: popped %v, want %v", zero, got, want)
			}
		}
		if e.Seq != 9 {
			t.Fatalf("zero=%v: entry carries seq %d, want 9", zero, e.Seq)
		}
		if got := pop(q); got != nil || q.Len() != 0 {
			t.Fatalf("zero=%v: popped %v after the queue emptied (len %d)", zero, got, q.Len())
		}
	}
}

func TestIQDoubleInsertPanics(t *testing.T) {
	q := NewIQ[string](4)
	e := ent("x")
	q.Insert(e, 1, 0)
	defer func() {
		if recover() == nil {
			t.Error("double insert of a resident entry must panic")
		}
	}()
	q.Insert(e, 2, 0)
}

func TestIQResident(t *testing.T) {
	q := NewIQ[string](4)
	e := ent("x")
	q.Insert(e, 1, 0)
	if !e.Resident() {
		t.Fatal("inserted entry must be resident")
	}
	pop(q)
	if e.Resident() {
		t.Fatal("popped entry must not be resident")
	}
}

// TestDequeFIFO: order holds across a ring whose contents wrap past the
// end of the buffer and which then grows, At indexes front to back,
// and an index past either end panics.
func TestDequeFIFO(t *testing.T) {
	d := NewDeque[int](4)
	d.PushBack(1)
	d.PushBack(2)
	d.PushBack(3)
	if d.PopFront() != 1 || d.PopFront() != 2 {
		t.Fatal("pop front should return the oldest")
	}
	for v := 4; v <= 6; v++ {
		d.PushBack(v) // 5 and 6 wrap to the start of the buffer
	}
	d.PushBack(7) // full and wrapped: the buffer doubles
	if d.Len() != 5 || d.Front() != 3 || d.Back() != 7 {
		t.Fatalf("after growth: len %d front %d back %d", d.Len(), d.Front(), d.Back())
	}
	var seen []int
	for i := 0; i < d.Len(); i++ {
		seen = append(seen, d.At(i))
	}
	if fmt.Sprint(seen) != "[3 4 5 6 7]" {
		t.Fatalf("At order: %v", seen)
	}
	for _, i := range []int{-1, d.Len()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d) on a deque of %d did not panic", i, d.Len())
				}
			}()
			d.At(i)
		}()
	}
	if d.PopBack() != 7 {
		t.Fatal("pop back should return the youngest")
	}
	for want := 3; want <= 6; want++ {
		if v := d.PopFront(); v != want {
			t.Fatalf("pop front %d, want %d", v, want)
		}
	}
	if d.Len() != 0 {
		t.Fatal("deque should be empty")
	}
}

// TestDequeWraparound: the zero value grows from nothing, and a ring
// cycled many times over keeps its order.
func TestDequeWraparound(t *testing.T) {
	var d Deque[int]
	for round := 0; round < 10; round++ {
		for i := 0; i < 20; i++ {
			d.PushBack(round*100 + i)
		}
		for i := 0; i < 20; i++ {
			if v := d.PopFront(); v != round*100+i {
				t.Fatalf("round %d: got %d want %d", round, v, round*100+i)
			}
		}
	}
}

// TestDequeEmptyPops: Front and Back of an empty deque are the zero
// value; popping one panics.
func TestDequeEmptyPops(t *testing.T) {
	var d Deque[*int]
	if d.Front() != nil || d.Back() != nil {
		t.Error("front and back of an empty deque must be the zero value")
	}
	for name, pop := range map[string]func(){
		"PopFront": func() { d.PopFront() },
		"PopBack":  func() { d.PopBack() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on an empty deque must panic", name)
				}
			}()
			pop()
		}()
	}
}

// TestDequePreSizedNoAlloc: a ring sized at construction never
// allocates while it stays within that size, however often it wraps —
// the bounded windows (ROB, pseudo-ROB, LSQ) rely on it.
func TestDequePreSizedNoAlloc(t *testing.T) {
	d := NewDeque[int](8)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 8; i++ {
			d.PushBack(i)
		}
		for i := 0; i < 5; i++ {
			d.PopFront()
		}
		for i := 0; i < 5; i++ {
			d.PushBack(i)
		}
		for d.Len() > 0 {
			d.PopBack()
		}
	})
	if allocs != 0 {
		t.Fatalf("pre-sized deque allocated %.1f times per run", allocs)
	}
}

const sliqRegs = 64

// alwaysLive is the liveness test of SLIQ tests that squash nothing.
func alwaysLive[P any](uint64, P) bool { return true }

// sliqRec is a SLIQ test payload with the pipeline's liveness rule: it
// is live while it carries its entry's seq. A squash poisons the seq,
// and reusing the record for a later instruction gives it a new one.
type sliqRec struct{ seq uint64 }

const deadSeq = ^uint64(0)

func recLive(seq uint64, r *sliqRec) bool { return r.seq == seq }

// squash kills r's resident entry the way the pipeline's squash does.
func squash(s *SLIQ[*sliqRec], r *sliqRec) {
	r.seq = deadSeq
	s.Squash()
}

// sliqEntries returns where each entry record sits: a waiting list, the
// wake set or the free list. It fails when a record sits in two places
// (it was recycled twice) or the waiting count is off.
func sliqEntries[P any](s *SLIQ[P]) (map[*sliqEntry[P]]string, error) {
	where := map[*sliqEntry[P]]string{}
	place := func(e *sliqEntry[P], at string) error {
		if prev, dup := where[e]; dup {
			return fmt.Errorf("entry record of seq %d is in %s and in %s", e.seq, prev, at)
		}
		where[e] = at
		return nil
	}
	waiting := 0
	for reg, list := range s.waiting {
		waiting += len(list)
		for _, e := range list {
			if err := place(e, fmt.Sprintf("waiting list %d", reg)); err != nil {
				return nil, err
			}
		}
	}
	for i := 0; i < s.wakeable.lane.Len(); i++ {
		if err := place(s.wakeable.lane.At(i).v, "the wake lane"); err != nil {
			return nil, err
		}
	}
	for _, it := range s.wakeable.heap {
		if err := place(it.v, "the wake heap"); err != nil {
			return nil, err
		}
	}
	for _, e := range s.free {
		if err := place(e, "the free list"); err != nil {
			return nil, err
		}
	}
	if waiting != s.waitingN {
		return nil, fmt.Errorf("waiting lists hold %d entries, waitingN says %d", waiting, s.waitingN)
	}
	return where, nil
}

// sliqAllFree checks that all n entry records a test made are back on
// the free list, each once.
func sliqAllFree[P any](s *SLIQ[P], n int) error {
	where, err := sliqEntries(s)
	if err == nil && (len(where) != n || len(s.free) != n) {
		err = fmt.Errorf("%d entry records, %d of them free; want all %d free", len(where), len(s.free), n)
	}
	return err
}

func TestSLIQWakeFlow(t *testing.T) {
	s := NewSLIQ(16, 4, 4, sliqRegs, alwaysLive[int])
	trig := rename.PhysReg(7)
	for i := uint64(0); i < 6; i++ {
		if !s.Insert(i, trig, int(i)) {
			t.Fatal("insert failed")
		}
	}
	if s.Len() != 6 || s.NextWake() != -1 {
		t.Fatalf("len=%d next wake=%d, want 6 waiting entries", s.Len(), s.NextWake())
	}
	// No drain before the trigger fires.
	if n := s.Drain(100, func(uint64, int) bool { return true }); n != 0 {
		t.Fatal("nothing should drain before the trigger")
	}
	s.TriggerReady(trig, 100)
	// Start-up delay: not eligible until cycle 104.
	if n := s.Drain(103, func(uint64, int) bool { return true }); n != 0 {
		t.Fatal("drain before the wake delay must yield nothing")
	}
	var got []uint64
	n := s.Drain(104, func(seq uint64, _ int) bool { got = append(got, seq); return true })
	if n != 4 {
		t.Fatalf("first pump cycle drained %d, want width=4", n)
	}
	for i, seq := range got {
		if seq != uint64(i) {
			t.Fatalf("drain order %v, want oldest-first", got)
		}
	}
	if n := s.Drain(105, func(uint64, int) bool { return true }); n != 2 {
		t.Fatalf("second pump cycle drained %d, want 2", n)
	}
	st := s.Stats()
	if st.Woken != 6 || st.WakeStarts != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestSLIQDrainStopsWhenRejected(t *testing.T) {
	s := NewSLIQ(8, 0, 4, sliqRegs, alwaysLive[int])
	s.Insert(1, 1, 0)
	s.Insert(2, 1, 0)
	s.TriggerReady(1, 10)
	n := s.Drain(10, func(seq uint64, _ int) bool { return seq == 1 })
	if n != 1 {
		t.Fatalf("drained %d, want 1 (head rejected stops the pump)", n)
	}
	// Entry 2 is retained and drains later.
	if n := s.Drain(11, func(uint64, int) bool { return true }); n != 1 {
		t.Fatal("retained entry must drain on a later cycle")
	}
}

func TestSLIQCapacity(t *testing.T) {
	s := NewSLIQ(2, 4, 4, sliqRegs, alwaysLive[int])
	s.Insert(1, 1, 0)
	s.Insert(2, 1, 0)
	if s.Insert(3, 1, 0) {
		t.Fatal("full SLIQ must reject")
	}
	if s.Stats().FullStalls != 1 {
		t.Fatal("full stall not counted")
	}
}

// TestSLIQSquashYounger squashes every entry from seq 4 on, waiting or
// woken: each frees its slot at once, none wakes, and every entry
// record returns to the free list exactly once.
func TestSLIQSquashYounger(t *testing.T) {
	s := NewSLIQ(16, 4, 4, sliqRegs, recLive)
	var recs []*sliqRec
	for i := uint64(0); i < 9; i++ {
		recs = append(recs, &sliqRec{seq: i})
		s.Insert(i, rename.PhysReg(i%3), recs[i])
	}
	// Wake out of seq order: trigger 1's seqs 1,4,7 fill the in-order
	// lane, then trigger 0's seqs 0,3,6 fall behind its tail into the
	// heap. Trigger 2's seqs 2,5,8 keep waiting.
	s.TriggerReady(1, 0)
	s.TriggerReady(0, 0)
	if s.wakeable.lane.Len() != 3 || len(s.wakeable.heap) != 3 {
		t.Fatalf("wake set split %d lane / %d heap, want 3 / 3", s.wakeable.lane.Len(), len(s.wakeable.heap))
	}
	// Squashes waiting 5,8, lane 4,7 and heap 6.
	for _, r := range recs[4:] {
		squash(s, r)
	}
	if s.Len() != 4 {
		t.Fatalf("len = %d, want 4", s.Len())
	}
	// Only the surviving wakeable entries drain, oldest first.
	var drained []uint64
	record := func(seq uint64, r *sliqRec) bool {
		if r.seq != seq {
			t.Fatalf("drain offered the dead payload of seq %d", seq)
		}
		drained = append(drained, seq)
		return true
	}
	s.Drain(100, record)
	if fmt.Sprint(drained) != "[0 1 3]" {
		t.Fatalf("drained %v, want [0 1 3]", drained)
	}
	s.TriggerReady(2, 100)
	drained = nil
	s.Drain(104, record)
	if fmt.Sprint(drained) != "[2]" || s.Len() != 0 || s.NextWake() != -1 {
		t.Fatalf("drained %v (len %d, next wake %d), want [2] and an empty SLIQ", drained, s.Len(), s.NextWake())
	}
	if err := sliqAllFree(s, 9); err != nil {
		t.Fatal(err)
	}
}

func TestSLIQMultipleTriggers(t *testing.T) {
	s := NewSLIQ(8, 1, 4, sliqRegs, alwaysLive[string])
	s.Insert(1, 10, "a")
	s.Insert(2, 20, "b")
	s.TriggerReady(20, 0)
	var got []uint64
	s.Drain(1, func(seq uint64, _ string) bool { got = append(got, seq); return true })
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("only trigger-20's entry should wake, got %v", got)
	}
	if s.Len() != 1 || s.NextWake() != -1 {
		t.Fatal("entry 1 should still wait")
	}
	s.TriggerReady(10, 5)
	got = nil
	s.Drain(6, func(seq uint64, _ string) bool { got = append(got, seq); return true })
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("trigger-10's entry should wake, got %v", got)
	}
}

// TestSLIQClear: squashing every entry, woken or still waiting, empties
// the SLIQ at once; a dead woken head vetoes the clock skip until Drain
// drops it, and the dead waiting entry never wakes.
func TestSLIQClear(t *testing.T) {
	s := NewSLIQ(8, 4, 4, sliqRegs, recLive)
	a, b := &sliqRec{seq: 1}, &sliqRec{seq: 2}
	s.Insert(1, 1, a)
	s.Insert(2, 2, b)
	s.TriggerReady(1, 0)
	squash(s, a)
	squash(s, b)
	if s.Len() != 0 || s.NextWake() != 0 {
		t.Fatalf("after clear: len %d, next wake %d, want 0 and 0", s.Len(), s.NextWake())
	}
	if n := s.Drain(100, func(uint64, *sliqRec) bool { t.Fatal("drain offered a dead entry"); return true }); n != 0 {
		t.Fatalf("drained %d dead entries", n)
	}
	s.TriggerReady(2, 100)
	if st := s.Stats(); s.NextWake() != -1 || st.WakeStarts != 1 || st.Squashed != 2 {
		t.Fatalf("next wake %d, stats %+v: want -1, one wake start and two squashes", s.NextWake(), st)
	}
	if err := sliqAllFree(s, 2); err != nil {
		t.Fatal(err)
	}
}

// TestSLIQRecycling exercises the internal entry pool and the reuse of
// payload records under new seqs, as the pipeline recycles its
// instruction records: entries squashed or drained must be reusable
// without cross-talk between generations. The squashed entries wait on
// a trigger that fires only at the end, so their dead entries pile up
// behind the live entry of the last round, which alone wakes.
func TestSLIQRecycling(t *testing.T) {
	s := NewSLIQ(8, 0, 8, sliqRegs, recLive)
	recs := [3]*sliqRec{{}, {}, {}}
	const rounds = 5
	for round := 0; round < rounds; round++ {
		base := uint64(round * 10)
		for i, r := range recs {
			r.seq = base + uint64(i) + 1
			s.Insert(r.seq, rename.PhysReg(3+i/2), r)
		}
		if round < rounds-1 {
			// Squash one while waiting, wake and drain the others.
			squash(s, recs[2])
		}
		s.TriggerReady(3, int64(round))
		var got []uint64
		s.Drain(int64(round), func(seq uint64, r *sliqRec) bool { got = append(got, r.seq); return true })
		if len(got) != 2 || got[0] != base+1 || got[1] != base+2 {
			t.Fatalf("round %d drained %v", round, got)
		}
	}
	if s.Len() != 1 {
		t.Fatalf("len = %d, want the last round's waiting entry", s.Len())
	}
	s.TriggerReady(4, 10)
	var got []uint64
	s.Drain(10, func(seq uint64, _ *sliqRec) bool { got = append(got, seq); return true })
	if fmt.Sprint(got) != "[43]" || s.Len() != 0 {
		t.Fatalf("trigger 4 drained %v (len %d), want [43] and an empty SLIQ", got, s.Len())
	}
	if st := s.Stats(); st.Inserted != 15 || st.Woken != 11 || st.Squashed != 4 || st.WakeStarts != 6 {
		t.Fatalf("stats: %+v", st)
	}
	// Round 0 allocated three entry records and each later round one
	// more, for the dead entry it left waiting on trigger 4.
	if err := sliqAllFree(s, 3+rounds-1); err != nil {
		t.Fatal(err)
	}
}

func TestSLIQNextWake(t *testing.T) {
	s := NewSLIQ(8, 4, 4, sliqRegs, recLive)
	if got := s.NextWake(); got != -1 {
		t.Fatalf("empty SLIQ: NextWake = %d, want -1", got)
	}
	head := &sliqRec{seq: 2}
	s.Insert(1, 3, &sliqRec{seq: 1})
	s.Insert(2, 3, head)
	// Waiting entries are invisible: they wake only via TriggerReady.
	if got := s.NextWake(); got != -1 {
		t.Fatalf("waiting-only SLIQ: NextWake = %d, want -1", got)
	}
	s.TriggerReady(3, 100)
	// Both entries become eligible at 100 + delay.
	if got := s.NextWake(); got != 104 {
		t.Fatalf("NextWake = %d, want 104", got)
	}
	// Draining the head exposes the next entry's eligibility.
	if n := s.Drain(104, func(seq uint64, _ *sliqRec) bool { return seq == 1 }); n != 1 {
		t.Fatal("head did not drain")
	}
	if got := s.NextWake(); got != 104 {
		t.Fatalf("after partial drain: NextWake = %d, want 104", got)
	}
	// A squashed head must report "no skip" (0), never a future cycle
	// that would let a clock jump sail past the dead entry's collection;
	// Drain skips it, and the SLIQ is empty.
	squash(s, head)
	if got := s.NextWake(); got != 0 {
		t.Fatalf("squashed head: NextWake = %d, want 0", got)
	}
	if n := s.Drain(105, func(uint64, *sliqRec) bool { return true }); n != 0 || s.NextWake() != -1 {
		t.Fatalf("drained %d past the dead head, next wake %d: want 0 and -1", n, s.NextWake())
	}
}

// FuzzSLIQ drives a SLIQ through walks the fuzz bytes choose (insert,
// trigger, drain accepting or refusing, squash a resident, advance the
// clock) against a plain reference model: the resident entries, the
// per-trigger waiting lists and the pump (delayed, width-bounded,
// oldest first). A squash makes the entry's payload dead under the
// pipeline's liveness rule, then frees the slot; payload records are
// reused under new seqs, as the pipeline reuses its records. After
// every step it checks Len, NextWake, and that every entry record sits
// in one place, so none was recycled twice or leaked; every drain
// checks the order of the drained seqs. The
// seed corpus is 300 seeded random walks of 400 steps.
func FuzzSLIQ(f *testing.F) {
	for seed := int64(0); seed < 300; seed++ {
		ops := make([]byte, 800)
		rand.New(rand.NewSource(seed)).Read(ops)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) < 3 {
			return
		}
		const triggers = 4
		capacity, delay, width := 1+int(ops[0]%8), int64(ops[1]%4), 1+int(ops[2]%4)
		s := NewSLIQ(capacity, int(delay), width, triggers, recLive)

		// The model: woken entries sorted by seq, dead ones included
		// until the pump reaches them; waiting lists per trigger.
		type ment struct {
			seq        uint64
			rec        *sliqRec
			eligibleAt int64
		}
		live := func(e *ment) bool { return e.rec.seq == e.seq }
		var waiting [triggers][]*ment
		var woken []*ment
		resident := 0
		var spare []*sliqRec // payload records free for reuse
		var now int64
		var seq, squashes uint64
		known := map[*sliqEntry[*sliqRec]]bool{} // every entry record seen

		for i := 3; i+1 < len(ops); i += 2 {
			arg := int(ops[i+1])
			switch ops[i] % 5 {
			case 0:
				seq++
				var r *sliqRec
				if n := len(spare); n > 0 && arg%2 == 0 {
					r, spare = spare[n-1], spare[:n-1]
				} else {
					r = &sliqRec{}
				}
				r.seq = seq
				trig := arg % triggers
				ok := s.Insert(seq, rename.PhysReg(trig), r)
				if ok != (resident < capacity) {
					t.Fatalf("step %d: insert of seq %d returned %v with %d of %d resident", i, seq, ok, resident, capacity)
				}
				if !ok {
					spare = append(spare, r)
					break
				}
				waiting[trig] = append(waiting[trig], &ment{seq: seq, rec: r})
				resident++
			case 1:
				trig := arg % triggers
				s.TriggerReady(rename.PhysReg(trig), now)
				for _, e := range waiting[trig] {
					if live(e) {
						e.eligibleAt = now + delay
						j, _ := slices.BinarySearchFunc(woken, e.seq, func(w *ment, seq uint64) int { return cmp.Compare(w.seq, seq) })
						woken = slices.Insert(woken, j, e)
					}
				}
				waiting[trig] = nil
			case 2:
				// Refusals come from the argument's bits, one per offer.
				var want, got []uint64
				offers := 0
				accept := func() bool {
					ok := arg>>(offers%8)&1 == 1 || arg%3 != 0
					offers++
					return ok
				}
				for len(want) < width && len(woken) > 0 {
					e := woken[0]
					if !live(e) {
						woken = woken[1:]
						continue
					}
					if e.eligibleAt > now || !accept() {
						break
					}
					woken = woken[1:]
					want = append(want, e.seq)
					spare = append(spare, e.rec)
					resident--
				}
				offers = 0
				n := s.Drain(now, func(seq uint64, r *sliqRec) bool {
					if r.seq != seq {
						t.Fatalf("step %d: drain offered the dead payload of seq %d", i, seq)
					}
					if !accept() {
						return false
					}
					got = append(got, seq)
					return true
				})
				if n != len(got) || !slices.Equal(got, want) {
					t.Fatalf("step %d: drained %v (returned %d), want %v", i, got, n, want)
				}
			case 3:
				// Squash the arg-th live resident, waiting or woken.
				var all []*ment
				for _, list := range waiting {
					all = append(all, list...)
				}
				all = append(all, woken...)
				all = slices.DeleteFunc(all, func(e *ment) bool { return !live(e) })
				if len(all) == 0 {
					break
				}
				e := all[arg%len(all)]
				squash(s, e.rec)
				spare = append(spare, e.rec)
				resident--
				squashes++
			case 4:
				now += int64(arg % 8)
			}

			if s.Len() != resident {
				t.Fatalf("step %d: Len %d, model holds %d live residents", i, s.Len(), resident)
			}
			want := int64(-1)
			if len(woken) > 0 {
				want = woken[0].eligibleAt
				if !live(woken[0]) {
					want = 0
				}
			}
			if got := s.NextWake(); got != want {
				t.Fatalf("step %d: NextWake %d, want %d", i, got, want)
			}
			// Dead entries leave exactly when the model drops them.
			held := len(woken)
			for _, list := range waiting {
				held += len(list)
			}
			if got := s.waitingN + s.wakeable.lane.Len() + len(s.wakeable.heap); got != held {
				t.Fatalf("step %d: the SLIQ holds %d entries, dead ones included; the model %d", i, got, held)
			}
			where, err := sliqEntries(s)
			if err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			for e := range where {
				known[e] = true
			}
			if len(where) != len(known) {
				t.Fatalf("step %d: %d of %d entry records leaked", i, len(known)-len(where), len(known))
			}
		}
		if st := s.Stats(); st.Squashed != squashes {
			t.Fatalf("stats count %d squashes, the walk made %d", st.Squashed, squashes)
		}
	})
}

// TestSeqHeapModel drives a seqHeap with random pushes and pops against
// a sorted reference. Seqs come in ascending runs, as dispatch produces
// them, broken by older ones, so items cross between the in-order lane
// and the heap in both directions.
func TestSeqHeapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h seqHeap[int]
	var ref []uint64 // ascending
	used := map[uint64]bool{}
	tail := uint64(0)
	maxLane, maxHeap := 0, 0
	check := func(step int) {
		it, ok := h.front()
		if ok != (len(ref) > 0) || ok && (it.seq != ref[0] || it.v != int(ref[0])) {
			t.Fatalf("step %d: front (%d, %d, %v), want %v", step, it.seq, it.v, ok, ref[:min(len(ref), 1)])
		}
	}
	for step := 0; step < 50000; step++ {
		if rng.Intn(10) < 6 {
			var seq uint64
			if rng.Intn(3) == 0 {
				seq = uint64(rng.Int63n(int64(tail) + 1))
			} else {
				tail += uint64(1 + rng.Intn(3))
				seq = tail
			}
			if used[seq] {
				continue
			}
			used[seq] = true
			h.push(seq, int(seq))
			i, _ := slices.BinarySearch(ref, seq)
			ref = slices.Insert(ref, i, seq)
		} else if len(ref) > 0 {
			check(step)
			h.pop()
			ref = ref[1:]
		}
		check(step)
		maxLane, maxHeap = max(maxLane, h.lane.Len()), max(maxHeap, len(h.heap))
	}
	if maxLane < 8 || maxHeap < 8 {
		t.Fatalf("lane peaked at %d items and heap at %d: the pushes did not exercise both", maxLane, maxHeap)
	}
	for len(ref) > 0 {
		check(-1)
		h.pop()
		ref = ref[1:]
	}
	check(-1)
}
