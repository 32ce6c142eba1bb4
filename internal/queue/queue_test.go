package queue

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
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

// alwaysLive is the liveness test of SLIQ tests that squash nothing.
func alwaysLive[P any](uint64, P) bool { return true }

// sliqRec is a SLIQ test payload with the pipeline's liveness rule: it
// is live while it carries its resident's seq. A squash poisons the seq,
// and reusing the record for a later instruction gives it a new one.
type sliqRec struct{ seq uint64 }

const deadSeq = ^uint64(0)

func recLive(seq uint64, r *sliqRec) bool { return r.seq == seq }

// squash kills r's resident the way the pipeline's squash does.
func squash(s *SLIQ[*sliqRec], r *sliqRec) {
	r.seq = deadSeq
	s.Squash()
}

// wakeItems is the wake set's item count, dead items included.
func wakeItems[P any](s *SLIQ[P]) int { return s.wakeable.lane.Len() + len(s.wakeable.heap) }

// TestSLIQWakeFlow: residents wait until woken, then re-enter after the
// start-up delay at the pump width, oldest first whatever order their
// wakes started in.
func TestSLIQWakeFlow(t *testing.T) {
	s := NewSLIQ(16, 4, 4, alwaysLive[int])
	for i := 0; i < 6; i++ {
		if !s.Insert() {
			t.Fatal("insert failed")
		}
	}
	if s.Len() != 6 || s.NextWake() != -1 {
		t.Fatalf("len=%d next wake=%d, want 6 waiting residents", s.Len(), s.NextWake())
	}
	// No drain before a wake starts.
	if n := s.Drain(100, func(uint64, int) bool { return true }); n != 0 {
		t.Fatal("nothing should drain before a wake")
	}
	for _, seq := range []uint64{3, 0, 5, 1, 4, 2} {
		s.Wake(seq, int(seq), 100)
	}
	// Start-up delay: not eligible until cycle 104.
	if n := s.Drain(103, func(uint64, int) bool { return true }); n != 0 {
		t.Fatal("drain before the wake delay must yield nothing")
	}
	var got []uint64
	record := func(seq uint64, _ int) bool { got = append(got, seq); return true }
	if n := s.Drain(104, record); n != 4 {
		t.Fatalf("first pump cycle drained %d, want width=4", n)
	}
	if n := s.Drain(105, record); n != 2 {
		t.Fatalf("second pump cycle drained %d, want 2", n)
	}
	if fmt.Sprint(got) != "[0 1 2 3 4 5]" {
		t.Fatalf("drain order %v, want oldest-first", got)
	}
	if st := s.Stats(); st.Inserted != 6 || st.Woken != 6 || st.Wakes != 6 || s.Len() != 0 {
		t.Fatalf("len %d, stats: %+v", s.Len(), st)
	}
}

func TestSLIQDrainStopsWhenRejected(t *testing.T) {
	s := NewSLIQ(8, 0, 4, alwaysLive[int])
	s.Insert()
	s.Insert()
	s.Wake(1, 0, 10)
	s.Wake(2, 0, 10)
	n := s.Drain(10, func(seq uint64, _ int) bool { return seq == 1 })
	if n != 1 {
		t.Fatalf("drained %d, want 1 (head rejected stops the pump)", n)
	}
	// Resident 2 is retained and drains later.
	if n := s.Drain(11, func(uint64, int) bool { return true }); n != 1 {
		t.Fatal("retained resident must drain on a later cycle")
	}
}

func TestSLIQCapacity(t *testing.T) {
	s := NewSLIQ(2, 4, 4, alwaysLive[int])
	s.Insert()
	s.Insert()
	if s.Insert() {
		t.Fatal("full SLIQ must reject")
	}
	if s.Stats().FullStalls != 1 {
		t.Fatal("full stall not counted")
	}
}

// TestSLIQSquashYounger squashes every resident from seq 4 on, waiting
// or woken: each frees its slot at once, a waiting one leaves nothing
// behind, and a woken one never drains and leaves the wake set when the
// pump reaches it.
func TestSLIQSquashYounger(t *testing.T) {
	s := NewSLIQ(16, 4, 4, recLive)
	var recs []*sliqRec
	for i := uint64(0); i < 9; i++ {
		recs = append(recs, &sliqRec{seq: i})
		s.Insert()
	}
	// Wake out of seq order: seqs 1,4,7 fill the in-order lane, then
	// 0,3,6 fall behind its tail into the heap. Seqs 2,5,8 keep waiting.
	for _, seq := range []uint64{1, 4, 7, 0, 3, 6} {
		s.Wake(seq, recs[seq], 0)
	}
	if s.wakeable.lane.Len() != 3 || len(s.wakeable.heap) != 3 {
		t.Fatalf("wake set split %d lane / %d heap, want 3 / 3", s.wakeable.lane.Len(), len(s.wakeable.heap))
	}
	// Squashes waiting 5,8, lane 4,7 and heap 6.
	for _, r := range recs[4:] {
		squash(s, r)
	}
	if s.Len() != 4 || wakeItems(s) != 6 {
		t.Fatalf("len %d, %d wake items; want 4 residents and all 6 items until the pump passes", s.Len(), wakeItems(s))
	}
	// Only the surviving woken residents drain, oldest first.
	var drained []uint64
	record := func(seq uint64, r *sliqRec) bool {
		if r.seq != seq {
			t.Fatalf("drain offered the dead payload of seq %d", seq)
		}
		drained = append(drained, seq)
		return true
	}
	s.Drain(100, record)
	if fmt.Sprint(drained) != "[0 1 3]" || wakeItems(s) != 0 {
		t.Fatalf("drained %v leaving %d wake items, want [0 1 3] and none", drained, wakeItems(s))
	}
	s.Wake(2, recs[2], 100)
	drained = nil
	s.Drain(104, record)
	if fmt.Sprint(drained) != "[2]" || s.Len() != 0 || s.NextWake() != -1 {
		t.Fatalf("drained %v (len %d, next wake %d), want [2] and an empty SLIQ", drained, s.Len(), s.NextWake())
	}
}

// TestSLIQClear: squashing every resident, woken or still waiting,
// empties the SLIQ at once; a dead woken head vetoes the clock skip
// until Drain drops it.
func TestSLIQClear(t *testing.T) {
	s := NewSLIQ(8, 4, 4, recLive)
	a, b := &sliqRec{seq: 1}, &sliqRec{seq: 2}
	s.Insert()
	s.Insert()
	s.Wake(1, a, 0)
	squash(s, a)
	squash(s, b)
	if s.Len() != 0 || s.NextWake() != 0 {
		t.Fatalf("after clear: len %d, next wake %d, want 0 and 0", s.Len(), s.NextWake())
	}
	if n := s.Drain(100, func(uint64, *sliqRec) bool { t.Fatal("drain offered a dead resident"); return true }); n != 0 {
		t.Fatalf("drained %d dead residents", n)
	}
	if st := s.Stats(); s.NextWake() != -1 || wakeItems(s) != 0 || st.Wakes != 1 || st.Squashed != 2 {
		t.Fatalf("next wake %d, %d wake items, stats %+v: want -1, none, one wake and two squashes",
			s.NextWake(), wakeItems(s), st)
	}
}

// TestSLIQRecycling reuses one payload record under a new seq for each
// resident, as the pipeline reuses its instruction records: every
// earlier generation was woken and then squashed, so its dead item still
// sits in the wake set when the record's next occupant wakes. Only the
// live generation drains, and the pump drops the rest as it passes.
func TestSLIQRecycling(t *testing.T) {
	const rounds = 5
	s := NewSLIQ(rounds, 2, 8, recLive)
	rec := &sliqRec{}
	for gen := uint64(1); gen <= rounds; gen++ {
		rec.seq = gen
		if !s.Insert() {
			t.Fatalf("generation %d found no free slot", gen)
		}
		s.Wake(gen, rec, int64(gen))
		if gen < rounds {
			squash(s, rec)
		}
	}
	if s.Len() != 1 || wakeItems(s) != rounds || s.NextWake() != 0 {
		t.Fatalf("len %d, %d wake items, next wake %d; want 1, %d and a dead head (0)",
			s.Len(), wakeItems(s), s.NextWake(), rounds)
	}
	var got []uint64
	s.Drain(rounds+2, func(seq uint64, r *sliqRec) bool { got = append(got, seq); return true })
	if fmt.Sprint(got) != fmt.Sprint([]uint64{rounds}) || s.Len() != 0 || wakeItems(s) != 0 {
		t.Fatalf("drained %v leaving len %d and %d wake items, want [%d] and an empty SLIQ",
			got, s.Len(), wakeItems(s), rounds)
	}
	if st := s.Stats(); st.Inserted != rounds || st.Woken != 1 || st.Squashed != rounds-1 || st.Wakes != rounds {
		t.Fatalf("stats: %+v", st)
	}
	// Every slot is free again.
	for i := 0; i < rounds; i++ {
		if !s.Insert() {
			t.Fatalf("insert %d refused by an empty SLIQ of %d slots", i, rounds)
		}
	}
}

func TestSLIQNextWake(t *testing.T) {
	s := NewSLIQ(8, 4, 4, recLive)
	if got := s.NextWake(); got != -1 {
		t.Fatalf("empty SLIQ: NextWake = %d, want -1", got)
	}
	first, head := &sliqRec{seq: 1}, &sliqRec{seq: 2}
	s.Insert()
	s.Insert()
	// Waiting residents are invisible: they wake only through Wake.
	if got := s.NextWake(); got != -1 {
		t.Fatalf("waiting-only SLIQ: NextWake = %d, want -1", got)
	}
	s.Wake(1, first, 100)
	s.Wake(2, head, 100)
	// Both become eligible at 100 + delay.
	if got := s.NextWake(); got != 104 {
		t.Fatalf("NextWake = %d, want 104", got)
	}
	// Draining the head exposes the next resident's eligibility.
	if n := s.Drain(104, func(seq uint64, _ *sliqRec) bool { return seq == 1 }); n != 1 {
		t.Fatal("head did not drain")
	}
	if got := s.NextWake(); got != 104 {
		t.Fatalf("after partial drain: NextWake = %d, want 104", got)
	}
	// A squashed head must report "no skip" (0), never a future cycle
	// that would let a clock jump sail past the dead item's collection;
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
// wake a waiting resident, drain accepting or refusing, squash a waiting
// or woken resident, advance the clock) against a plain reference
// model: the waiting residents, and the woken ones in seq order with
// their eligibility cycles, dead ones included until the pump (delayed,
// width-bounded, oldest first) reaches them. A squash makes the
// resident's payload dead under the pipeline's liveness rule, then
// frees the slot; payload records are reused under new seqs, as the
// pipeline reuses its records. After every step it checks Len,
// NextWake and the wake set's item count, dead items included; every
// drain checks the order of the drained seqs. The seed corpus is 300
// seeded random walks of 400 steps.
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
		capacity, delay, width := 1+int(ops[0]%8), int64(ops[1]%4), 1+int(ops[2]%4)
		s := NewSLIQ(capacity, int(delay), width, recLive)

		type ment struct {
			seq        uint64
			rec        *sliqRec
			eligibleAt int64
		}
		live := func(e *ment) bool { return e.rec.seq == e.seq }
		var waiting, woken []*ment // woken: sorted by seq
		resident := 0
		var spare []*sliqRec // payload records free for reuse
		var now int64
		var seq, squashes, wakes, drained uint64

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
				ok := s.Insert()
				if ok != (resident < capacity) {
					t.Fatalf("step %d: insert of seq %d returned %v with %d of %d resident", i, seq, ok, resident, capacity)
				}
				if !ok {
					spare = append(spare, r)
					break
				}
				waiting = append(waiting, &ment{seq: seq, rec: r})
				resident++
			case 1:
				if len(waiting) == 0 {
					break
				}
				j := arg % len(waiting)
				e := waiting[j]
				waiting = slices.Delete(waiting, j, j+1)
				s.Wake(e.seq, e.rec, now)
				wakes++
				e.eligibleAt = now + delay
				k, _ := slices.BinarySearchFunc(woken, e.seq, func(w *ment, seq uint64) int { return cmp.Compare(w.seq, seq) })
				woken = slices.Insert(woken, k, e)
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
				drained += uint64(n)
			case 3:
				// Squash the arg-th live resident, waiting or woken. A
				// waiting one leaves nothing behind; a woken one stays in
				// the wake set, dead, until the pump reaches it.
				all := slices.Concat(waiting, slices.DeleteFunc(slices.Clone(woken), func(e *ment) bool { return !live(e) }))
				if len(all) == 0 {
					break
				}
				j := arg % len(all)
				e := all[j]
				if j < len(waiting) {
					waiting = slices.Delete(waiting, j, j+1)
				}
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
			// Dead items leave exactly when the model drops them.
			if got := wakeItems(s); got != len(woken) {
				t.Fatalf("step %d: the wake set holds %d items, dead ones included; the model %d", i, got, len(woken))
			}
		}
		st := s.Stats()
		if st.Squashed != squashes || st.Wakes != wakes || st.Woken != drained {
			t.Fatalf("stats %+v; the walk made %d squashes, %d wakes and %d drains", st, squashes, wakes, drained)
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
