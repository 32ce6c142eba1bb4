// Package queue implements the instruction-buffering structures of the
// simulated processor: the general-purpose issue queues (with
// event-driven wakeup and oldest-first select), the ring deque that
// holds a core's in-flight window, and the Slow Lane Instruction Queue
// (SLIQ) of the paper's section 3.
//
// The hierarchy has one ordering rule: an issue queue selects its
// oldest ready entry, and woken SLIQ residents re-enter the issue
// queues oldest first. One ordered set, seqHeap, implements it for both.
// Both hold seq-checked references and neither takes one out early: a
// squash frees the slot only, and each owner drops a dead reference when
// it next reaches it (at the ready set's front or the SLIQ's wake
// front).
//
// The issue queue and the SLIQ are on the simulator's innermost loop
// (one insert per dispatched instruction, one wake per produced value),
// so both are allocation-free in steady state: IQ entries are intrusive
// — the pipeline embeds IQEntry in its own instruction record and queue
// residence costs nothing — and the SLIQ keeps no per-resident record
// at all: a slot count, and a wake set item once the trigger is written.
// Who waits on which register is the pipeline's scoreboard's business.
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
	resident bool
}

// Pending returns the number of source operands still awaited.
func (e *IQEntry[P]) Pending() int { return int(e.pending) }

// Resident reports whether the entry currently occupies a queue slot.
func (e *IQEntry[P]) Resident() bool { return e.resident }

// IQ is a fixed-capacity issue queue. Entries wait until their pending
// source count reaches zero, then become selectable oldest-first.
// Select bandwidth and functional-unit availability are enforced by the
// caller (the pipeline's issue stage).
//
// The ready set holds a seq-checked reference for every entry that
// became ready: the item is live exactly while its entry is resident,
// has no pending source and still carries the item's seq. Remove only
// frees the slot, so the item of a squashed entry, or of a record that
// the pipeline has since reused under a new seq, stays behind until
// PeekReady drops it.
type IQ[P any] struct {
	capacity int
	occupied int
	ready    seqHeap[*IQEntry[P]]
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

// Full reports whether the queue has no free entry.
func (q *IQ[P]) Full() bool { return q.occupied >= q.capacity }

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
	e.resident = true
	q.occupied++
	if e.pending == 0 {
		q.ready.push(seq, e)
	}
	return true
}

// Wake signals that one of e's source operands became ready. When the
// last source arrives the entry joins the ready set.
func (q *IQ[P]) Wake(e *IQEntry[P]) {
	if !e.resident {
		panic("queue: Wake on non-resident entry")
	}
	if e.pending <= 0 {
		panic(fmt.Sprintf("queue: wake underflow on seq %d", e.Seq))
	}
	e.pending--
	if e.pending == 0 {
		q.ready.push(e.Seq, e)
	}
}

// PeekReady returns the oldest ready entry without removing it, or nil
// when no entry is selectable. Dead items in front of it leave the set.
func (q *IQ[P]) PeekReady() *IQEntry[P] {
	for {
		it, ok := q.ready.front()
		if !ok {
			return nil
		}
		if e := it.v; e.resident && e.pending == 0 && e.Seq == it.seq {
			return e
		}
		q.ready.pop()
	}
}

// Take removes e, the entry PeekReady just returned, and frees its slot:
// the caller has committed to issuing it. It panics when e is not the
// ready set's front.
func (q *IQ[P]) Take(e *IQEntry[P]) {
	if it, ok := q.ready.front(); !ok || it.v != e || it.seq != e.Seq {
		panic(fmt.Sprintf("queue: Take of seq %d, which is not the oldest ready entry", e.Seq))
	}
	q.ready.pop()
	e.resident = false
	q.occupied--
}

// Unissue reinserts an entry taken by Take back into the ready set, used
// when issue fails on a structural hazard (all functional units busy)
// and the instruction must retry next cycle.
func (q *IQ[P]) Unissue(e *IQEntry[P]) {
	if e.resident {
		panic("queue: Unissue of resident entry")
	}
	e.resident = true
	q.occupied++
	q.ready.push(e.Seq, e)
}

// Remove frees a resident entry's slot regardless of readiness (squash,
// or a move to the SLIQ); its ready item, if any, is dead from now on.
// It is a no-op for entries already gone.
func (q *IQ[P]) Remove(e *IQEntry[P]) {
	if !e.resident {
		return
	}
	e.resident = false
	q.occupied--
}
