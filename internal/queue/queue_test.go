package queue

import (
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
// end of the buffer and which then grows, and ForEach walks front to
// back.
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
	d.ForEach(func(v int) { seen = append(seen, v) })
	if fmt.Sprint(seen) != "[3 4 5 6 7]" {
		t.Fatalf("ForEach order: %v", seen)
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

func TestSLIQWakeFlow(t *testing.T) {
	s := NewSLIQ[int](16, 4, 4, sliqRegs)
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
	s := NewSLIQ[int](8, 0, 4, sliqRegs)
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
	s := NewSLIQ[int](2, 4, 4, sliqRegs)
	s.Insert(1, 1, 0)
	s.Insert(2, 1, 0)
	if s.Insert(3, 1, 0) {
		t.Fatal("full SLIQ must reject")
	}
	if s.Stats().FullStalls != 1 {
		t.Fatal("full stall not counted")
	}
}

func TestSLIQSquashYounger(t *testing.T) {
	s := NewSLIQ[int](16, 4, 4, sliqRegs)
	var squashed []int
	for i := uint64(0); i < 9; i++ {
		s.Insert(i, rename.PhysReg(i%3), int(i))
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
	s.SquashYounger(4, func(p int) { squashed = append(squashed, p) })
	slices.Sort(squashed)
	if fmt.Sprint(squashed) != "[4 5 6 7 8]" {
		t.Fatalf("squashed %v, want [4 5 6 7 8]", squashed)
	}
	if s.Len() != 4 {
		t.Fatalf("len = %d, want 4", s.Len())
	}
	// Only the surviving wakeable entries drain, oldest first.
	var drained []uint64
	record := func(seq uint64, _ int) bool { drained = append(drained, seq); return true }
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
}

func TestSLIQMultipleTriggers(t *testing.T) {
	s := NewSLIQ[string](8, 1, 4, sliqRegs)
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

// TestSLIQClear: squashing from seq 0 flushes every entry, woken or
// still waiting.
func TestSLIQClear(t *testing.T) {
	s := NewSLIQ[int](8, 4, 4, sliqRegs)
	s.Insert(1, 1, 0)
	s.Insert(2, 2, 0)
	s.TriggerReady(1, 0)
	n := 0
	s.SquashYounger(0, func(int) { n++ })
	if n != 2 || s.Len() != 0 {
		t.Fatalf("clear squashed %d, len %d", n, s.Len())
	}
}

// TestSLIQRecycling exercises the internal entry pool: entries squashed
// or drained must be reusable without cross-talk between generations.
func TestSLIQRecycling(t *testing.T) {
	s := NewSLIQ[int](8, 0, 8, sliqRegs)
	for round := 0; round < 5; round++ {
		base := uint64(round * 10)
		s.Insert(base+1, 3, round*10+1)
		s.Insert(base+2, 3, round*10+2)
		s.Insert(base+3, 4, round*10+3)
		// Squash one while waiting, wake and drain the others.
		s.SquashYounger(base+3, func(int) {})
		s.TriggerReady(3, int64(round))
		var got []int
		s.Drain(int64(round), func(_ uint64, p int) bool { got = append(got, p); return true })
		if len(got) != 2 || got[0] != round*10+1 || got[1] != round*10+2 {
			t.Fatalf("round %d drained %v", round, got)
		}
		if s.Len() != 0 {
			t.Fatalf("round %d: len = %d, want 0", round, s.Len())
		}
	}
	if st := s.Stats(); st.Inserted != 15 || st.Woken != 10 || st.Squashed != 5 {
		t.Fatalf("stats: %+v", s.Stats())
	}
}

func TestSLIQNextWake(t *testing.T) {
	s := NewSLIQ[int](8, 4, 4, sliqRegs)
	if got := s.NextWake(); got != -1 {
		t.Fatalf("empty SLIQ: NextWake = %d, want -1", got)
	}
	s.Insert(1, 3, 10)
	s.Insert(2, 3, 20)
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
	if n := s.Drain(104, func(seq uint64, _ int) bool { return seq == 1 }); n != 1 {
		t.Fatal("head did not drain")
	}
	if got := s.NextWake(); got != 104 {
		t.Fatalf("after partial drain: NextWake = %d, want 104", got)
	}
	// A squashed head must report "no skip" (0), never a future cycle
	// that would let a clock jump sail past the dead entry's collection.
	s.SquashYounger(2, func(int) {})
	if got := s.NextWake(); got != 0 {
		t.Fatalf("squashed head: NextWake = %d, want 0", got)
	}
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
		if step%1000 == 0 {
			var all []uint64
			h.each(func(v int) { all = append(all, uint64(v)) })
			slices.Sort(all)
			if !slices.Equal(all, ref) {
				t.Fatalf("step %d: each walked %d items, want %d", step, len(all), len(ref))
			}
		}
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
