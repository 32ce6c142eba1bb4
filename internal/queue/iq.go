// Package queue implements the instruction-buffering structures of the
// simulated processor: the general-purpose issue queues (with
// event-driven wakeup and oldest-first select), the ring deque that
// holds every in-flight window (ROB, pseudo-ROB, LSQ, ...), and the Slow
// Lane Instruction Queue (SLIQ) of the paper's section 3.
//
// The issue queue and the SLIQ are on the simulator's innermost loop
// (one insert per dispatched instruction, one wake per produced value),
// so both are allocation-free in steady state: IQ entries are intrusive
// — the pipeline embeds IQEntry in its own instruction record and queue
// residence costs nothing — and SLIQ entries recycle through an internal
// free list. Both replace the former container/heap + `any` payloads
// with typed min-heaps.
package queue

import "fmt"

// IQEntry is one instruction's issue-queue residence state. The pipeline
// embeds it in its per-instruction record (intrusive design) and passes
// a pointer to the embedded entry to Insert; entering and leaving the
// queue therefore allocates nothing. Payload points back at the owning
// record; all other fields are managed by the queue.
type IQEntry[P any] struct {
	// Seq is the dynamic sequence number, used for oldest-first select.
	Seq uint64
	// Payload is the typed handle back to the pipeline's record.
	Payload P

	pending  int32 // unready source operands
	heapIdx  int32 // index in the ready heap, or -1
	resident bool
	q        *IQ[P]
}

// Pending returns the number of source operands still awaited.
func (e *IQEntry[P]) Pending() int { return int(e.pending) }

// Ready reports whether the entry is in the ready set.
func (e *IQEntry[P]) Ready() bool { return e.resident && e.pending == 0 }

// Resident reports whether the entry currently occupies a queue slot.
func (e *IQEntry[P]) Resident() bool { return e.resident }

// IQ is a fixed-capacity issue queue. Entries wait until their pending
// source count reaches zero, then become selectable oldest-first.
// Select bandwidth and functional-unit availability are enforced by the
// caller (the pipeline's issue stage).
type IQ[P any] struct {
	capacity int
	occupied int
	ready    []readyItem[P] // 4-ary min-heap by seq
	// fifo is the fast lane of the ready set: entries whose seq extends
	// the lane's monotone order (the common case — instructions ready
	// at dispatch arrive in program order) enqueue and pop in O(1),
	// bypassing the heap entirely. The selectable minimum is the
	// smaller of the two lanes' fronts, so select order is unchanged.
	// Removal marks lane items stale in place (seq mismatch or a
	// non-lane heapIdx); pops skip them.
	fifo     []readyItem[P]
	fifoHead int
}

// fifoLane marks (in IQEntry.heapIdx) residence in the ready FIFO lane.
const fifoLane int32 = -2

// readyItem pairs an entry with a copy of its sequence number so the
// heap's comparisons walk the flat heap array instead of dereferencing
// every candidate entry (the pointer chase dominated sift-down).
type readyItem[P any] struct {
	seq uint64
	e   *IQEntry[P]
}

// NewIQ builds an issue queue with the given capacity.
func NewIQ[P any](capacity int) *IQ[P] {
	if capacity < 1 {
		panic(fmt.Sprintf("queue: IQ capacity %d < 1", capacity))
	}
	return &IQ[P]{capacity: capacity}
}

// Cap returns the queue capacity.
func (q *IQ[P]) Cap() int { return q.capacity }

// Len returns the number of resident entries.
func (q *IQ[P]) Len() int { return q.occupied }

// Free returns the number of available entries.
func (q *IQ[P]) Free() int { return q.capacity - q.occupied }

// Full reports whether the queue has no free entry.
func (q *IQ[P]) Full() bool { return q.occupied >= q.capacity }

// ReadyCount returns the number of selectable entries.
func (q *IQ[P]) ReadyCount() int {
	n := len(q.ready)
	for _, it := range q.fifo[q.fifoHead:] {
		if it.e.heapIdx == fifoLane && it.e.Seq == it.seq {
			n++
		}
	}
	return n
}

// readyPush enters e into the ready set: the FIFO lane when its seq
// extends the lane's order, the heap otherwise (SLIQ re-insertions and
// issue retries arrive out of order).
func (q *IQ[P]) readyPush(e *IQEntry[P]) {
	if n := len(q.fifo); n == q.fifoHead || e.Seq > q.fifo[n-1].seq {
		if q.fifoHead == len(q.fifo) && q.fifoHead > 0 {
			q.fifo = q.fifo[:0]
			q.fifoHead = 0
		}
		e.heapIdx = fifoLane
		q.fifo = append(q.fifo, readyItem[P]{seq: e.Seq, e: e})
		return
	}
	q.heapPush(e)
}

// fifoFront returns the lane's live front, skipping stale items.
func (q *IQ[P]) fifoFront() *readyItem[P] {
	for q.fifoHead < len(q.fifo) {
		it := &q.fifo[q.fifoHead]
		if it.e.heapIdx == fifoLane && it.e.Seq == it.seq {
			return it
		}
		q.fifo[q.fifoHead] = readyItem[P]{}
		q.fifoHead++
	}
	if q.fifoHead > 0 {
		q.fifo = q.fifo[:0]
		q.fifoHead = 0
	}
	return nil
}

// Insert adds an instruction with the given number of not-yet-ready
// sources. e is the caller-owned (typically embedded) entry; it must not
// be resident. Insert returns false when the queue is full.
func (q *IQ[P]) Insert(e *IQEntry[P], seq uint64, pendingSources int) bool {
	if q.Full() {
		return false
	}
	if pendingSources < 0 {
		panic(fmt.Sprintf("queue: negative pending count %d", pendingSources))
	}
	if e.resident {
		panic(fmt.Sprintf("queue: double insert of seq %d", e.Seq))
	}
	e.Seq = seq
	e.pending = int32(pendingSources)
	e.heapIdx = -1
	e.resident = true
	e.q = q
	q.occupied++
	if e.pending == 0 {
		q.readyPush(e)
	}
	return true
}

// Wake signals that one of e's source operands became ready. When the
// last source arrives the entry joins the ready set.
func (q *IQ[P]) Wake(e *IQEntry[P]) {
	if !e.resident || e.q != q {
		panic("queue: Wake on non-resident entry")
	}
	if e.pending <= 0 {
		panic(fmt.Sprintf("queue: wake underflow on seq %d", e.Seq))
	}
	e.pending--
	if e.pending == 0 {
		q.heapPush(e)
	}
}

// PopReady removes and returns the oldest ready entry, or nil when no
// entry is selectable. The entry leaves the queue (its slot is freed);
// the caller has committed to issuing it.
func (q *IQ[P]) PopReady() *IQEntry[P] {
	var e *IQEntry[P]
	f := q.fifoFront()
	switch {
	case f == nil && len(q.ready) == 0:
		return nil
	case f == nil || (len(q.ready) > 0 && q.ready[0].seq < f.seq):
		e = q.heapPop()
	default:
		e = f.e
		q.fifo[q.fifoHead] = readyItem[P]{}
		q.fifoHead++
		e.heapIdx = -1
	}
	e.resident = false
	q.occupied--
	return e
}

// PeekReady returns the oldest ready entry without removing it.
func (q *IQ[P]) PeekReady() *IQEntry[P] {
	f := q.fifoFront()
	switch {
	case f == nil && len(q.ready) == 0:
		return nil
	case f == nil || (len(q.ready) > 0 && q.ready[0].seq < f.seq):
		return q.ready[0].e
	default:
		return f.e
	}
}

// Unissue reinserts an entry popped by PopReady back into the ready set,
// used when issue fails on a structural hazard (all functional units
// busy) and the instruction must retry next cycle.
func (q *IQ[P]) Unissue(e *IQEntry[P]) {
	if e.resident {
		panic("queue: Unissue of resident entry")
	}
	e.resident = true
	q.occupied++
	q.heapPush(e)
}

// Remove deletes a resident entry regardless of readiness (squash, or a
// move to the SLIQ). It is a no-op for entries already gone.
func (q *IQ[P]) Remove(e *IQEntry[P]) {
	if !e.resident || e.q != q {
		return
	}
	if e.heapIdx >= 0 {
		q.heapRemove(int(e.heapIdx))
	} else if e.heapIdx == fifoLane {
		e.heapIdx = -1 // the stale lane item is skipped at pop time
	}
	e.resident = false
	q.occupied--
}

// Resident reports whether e currently occupies a slot of this queue.
func (q *IQ[P]) Resident(e *IQEntry[P]) bool { return e != nil && e.resident && e.q == q }

// The ready set is a hand-rolled 4-ary min-heap over Seq: a typed
// sibling of container/heap without the interface dispatch and `any`
// boxing that dominated the issue stage's profile. The 4-ary layout
// halves the levels a pop's sift-down walks (the hot operation — one
// per issued instruction) and keeps each level's children in one cache
// line of pointers; pop order is the strict Seq minimum either way, so
// the arity is invisible to simulated state.

func (q *IQ[P]) heapPush(e *IQEntry[P]) {
	e.heapIdx = int32(len(q.ready))
	q.ready = append(q.ready, readyItem[P]{seq: e.Seq, e: e})
	q.heapUp(len(q.ready) - 1)
}

func (q *IQ[P]) heapPop() *IQEntry[P] {
	h := q.ready
	e := h[0].e
	last := len(h) - 1
	h[0] = h[last]
	h[0].e.heapIdx = 0
	h[last] = readyItem[P]{}
	q.ready = h[:last]
	if last > 0 {
		q.heapDown(0)
	}
	e.heapIdx = -1
	return e
}

func (q *IQ[P]) heapRemove(i int) {
	h := q.ready
	last := len(h) - 1
	e := h[i].e
	if i != last {
		h[i] = h[last]
		h[i].e.heapIdx = int32(i)
	}
	h[last] = readyItem[P]{}
	q.ready = h[:last]
	if i < last {
		q.heapDown(i)
		q.heapUp(i)
	}
	e.heapIdx = -1
}

func (q *IQ[P]) heapUp(i int) {
	h := q.ready
	for i > 0 {
		parent := (i - 1) / 4
		if h[parent].seq <= h[i].seq {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		h[parent].e.heapIdx = int32(parent)
		h[i].e.heapIdx = int32(i)
		i = parent
	}
}

func (q *IQ[P]) heapDown(i int) {
	h := q.ready
	n := len(h)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		last := first + 4
		if last > n {
			last = n
		}
		min := first
		minSeq := h[first].seq
		for c := first + 1; c < last; c++ {
			if h[c].seq < minSeq {
				min, minSeq = c, h[c].seq
			}
		}
		if h[i].seq <= minSeq {
			break
		}
		h[i], h[min] = h[min], h[i]
		h[i].e.heapIdx = int32(i)
		h[min].e.heapIdx = int32(min)
		i = min
	}
}
