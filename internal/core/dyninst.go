// Package core implements the simulated processors. The pipeline
// (fetch/dispatch/issue/writeback) is shared; retirement is a pluggable
// CommitPolicy selected by config.Commit: the conventional ROB-commit
// baseline, the paper's checkpointed out-of-order commit with
// pseudo-ROB and Slow Lane Instruction Queuing, the adaptive-confidence
// checkpointing variant, and the unbounded-window oracle limit. See
// README's Architecture section for the modelling contract and
// policy.go for the seam.
package core

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/lsq"
	"repro/internal/queue"
	"repro/internal/rename"
)

// DynInst is the pipeline's record of one in-flight dynamic instruction.
// Fields are managed by the CPU; tests inspect them read-only.
//
// Ownership and recycling contract: records are acquired from a per-CPU
// free list at dispatch, which pushes each onto the CPU's in-flight
// window, the only structure that owns a live record, and return to the
// free list as they leave it: at commit (in the checkpoint family, once
// committed and extracted, in either order) or at squash. After release,
// no component may hold a *DynInst it intends to dereference as that
// instruction: Seq is the only durable identity and the only liveness
// test, so every structure that can outlive an instruction (the
// registers' wait lists, SLIQ trigger waits included, the deferred-bind
// queue, the SLIQ's wake set, the LSQ's forward waiters, the SLIQ
// dependence-mask owners) stores the Seq alongside the pointer and
// treats a mismatch as "instruction is gone". The issue queues' ready
// sets hold the same kind of reference. Squash (squashInst) frees the
// record's slot in every structure that counts occupancy (issue queue,
// SLIQ, LSQ) and takes it out of its checkpoint's counters; a
// seq-checked reference it leaves behind is dropped when its holder next
// reaches it. The completion event wheel never holds a released record
// (squash unschedules it eagerly). Release poisons Seq, so every such
// check fails from that moment; the record's other fields stay
// untouched until dispatch, the only acquirer, reuses it. A reader of
// the same cycle that holds a record without its Seq (writeback's due
// batch, finishCompletion after a recovery, the rollback's divergedAt
// check) tests released instead.
type DynInst struct {
	// Seq is the dynamic sequence number: unique and monotonically
	// increasing across fetches, including wrong-path and replayed
	// instructions. All age comparisons — and all liveness checks
	// against possibly-recycled records — use Seq.
	Seq uint64
	// Pos is the trace position this instruction came from; -1 for
	// wrong-path instructions.
	Pos int64
	// Inst is the architectural instruction.
	Inst isa.Inst

	// Rename state.
	DestPhys rename.PhysReg
	PrevPhys rename.PhysReg // previous mapping of Inst.Dest
	SrcPhys  [2]rename.PhysReg
	NumSrcs  int

	// Execution state.
	Issued    bool
	Done      bool
	DoneCycle int64
	// MissedL2 marks loads that went to main memory.
	MissedL2 bool
	// Mispredicted marks branches whose fetch-time prediction was wrong.
	Mispredicted bool
	// WrongPath marks synthetic instructions fetched past an unresolved
	// mispredicted branch; they never commit.
	WrongPath bool
	// LiveLong records the blocked-long/blocked-short classification
	// made at dispatch (Figure 7's live-instruction split); countedLive
	// marks that the instruction is in the live FP counters.
	LiveLong    bool
	countedLive bool
	// ExceptAt requests a precise exception when this instruction
	// completes (exception-replay tests inject it).
	ExceptAt bool
	// inSLIQ marks residence in the slow lane, waiting or woken.
	inSLIQ bool

	// Structure handles. iqe is the embedded issue-queue entry (see
	// queue.IQEntry): queue residence costs no allocation, and
	// iqe.Resident() replaces the former nil-pointer check. ckpt is the
	// checkpoint whose window holds the record, until it commits (see
	// commitInst).
	iqe  queue.IQEntry[*DynInst]
	lsqe *lsq.Entry[*DynInst]
	ckpt *rename.Checkpoint
	// sliqTrigger is a waiting SLIQ resident's trigger register, on
	// whose wait list it waits; its write starts the wake and resets the
	// field to PhysNone. It means nothing outside the SLIQ.
	sliqTrigger rename.PhysReg
	// wheelSlot is this instruction's completion-wheel slot, or
	// eventNone when no completion is scheduled.
	wheelSlot int32

	// pendingSrcs counts unready sources for LSQ-resident stores,
	// which wait on the scoreboard instead of occupying an issue-queue
	// entry (the paper keeps stores in the Load/Store queue).
	pendingSrcs int
}

// String renders a debug line.
func (d *DynInst) String() string {
	state := "waiting"
	switch {
	case d.released():
		state = "released"
	case d.Done:
		state = "done"
	case d.Issued:
		state = "issued"
	case d.inSLIQ:
		state = "sliq"
	}
	return fmt.Sprintf("#%d pos=%d %v [%s]", d.Seq, d.Pos, d.Inst, state)
}

// instPool recycles DynInst records within one CPU. Fresh records come
// from block allocations (instBlockSize at a time); a released record
// goes straight back on the free list with its Seq poisoned, and acquire
// zeroes it when dispatch takes it again (see the contract on DynInst).
type instPool struct {
	free  []*DynInst
	block []DynInst
}

const instBlockSize = 256

// debugPool enables pool-misuse checks: release verifies that the record
// is live and resident nowhere, and acquisition that it is still
// poisoned. The core test suite switches it on (see TestMain); it stays
// off in production runs to keep the reset path minimal.
var debugPool = false

// poisonSeq marks a record resident in the free list.
const poisonSeq = ^uint64(0) - 0x5eed

// released reports whether d is on the free list (its Seq is poisoned).
func (d *DynInst) released() bool { return d.Seq == poisonSeq }

// holdsSeq is the liveness test of a seq-checked reference to d: the
// reference is live while d still carries the seq it was taken with.
func holdsSeq(seq uint64, d *DynInst) bool { return d.Seq == seq }

// acquire returns a zeroed record with iqe.Payload bound. Free-list
// records are zeroed here; fresh-block records are runtime-zeroed.
func (p *instPool) acquire() *DynInst {
	if n := len(p.free); n > 0 {
		d := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		if debugPool && d.Seq != poisonSeq {
			panic(fmt.Sprintf("core: pool corruption: free-list record has seq %d", d.Seq))
		}
		*d = DynInst{}
		d.init()
		return d
	}
	if len(p.block) == 0 {
		p.block = make([]DynInst, instBlockSize)
	}
	d := &p.block[0]
	p.block = p.block[1:]
	d.init()
	return d
}

// init sets the non-zero defaults of a fresh record.
func (d *DynInst) init() {
	d.DestPhys = rename.PhysNone
	d.PrevPhys = rename.PhysNone
	d.wheelSlot = eventNone
	d.iqe.Payload = d
}

// release returns a record that left the pipeline (committed or
// squashed) to the free list, poisoning its Seq so that every holder's
// Seq check fails from now on.
func (p *instPool) release(d *DynInst) {
	if debugPool {
		if d.Seq == poisonSeq {
			panic("core: double release of a pooled DynInst")
		}
		if d.iqe.Resident() {
			panic(fmt.Sprintf("core: releasing issue-queue-resident %v", d))
		}
		if d.wheelSlot != eventNone {
			panic(fmt.Sprintf("core: releasing completion-scheduled %v", d))
		}
		if d.inSLIQ {
			panic(fmt.Sprintf("core: releasing SLIQ-resident %v", d))
		}
	}
	d.Seq = poisonSeq
	p.free = append(p.free, d)
}

// eventNone marks a record with no scheduled completion.
const eventNone int32 = -1

// eventWheel schedules completion events on a calendar ring indexed by
// cycle. Pop order is exactly the old completion heap's — (DoneCycle,
// Seq), a total order — so swapping the heap for the wheel is invisible
// to simulated state (TestFigure9Golden pins it); the win is O(1)
// push/remove against O(log n) heap churn when kilo-instruction windows
// keep hundreds of memory fills in flight at once. The ring spans the
// longest completion distance a valid configuration can schedule (see
// newCPU), so every event fits; push panics on one that does not.
type eventWheel struct {
	// buckets[t&mask] holds the (unsorted) events of cycle t for t in
	// [base, base+len(buckets)); each slot is drained before the ring
	// wraps back onto it, so slots are never shared between cycles.
	buckets [][]*DynInst
	mask    int64
	// base is the earliest cycle a push may target: takeDue(now) sets
	// it to now+1 before handing out the due batch, so mid-drain pushes
	// (and the late-push guard) land in a future slot, never the one
	// being drained.
	base int64
	n    int
	due  []*DynInst
}

// eventWheelSlots sizes the ring to cover horizon cycles of schedule
// distance, rounded up to a power of two of at least 64.
func eventWheelSlots(horizon int) int {
	size := 64
	for size < horizon {
		size *= 2
	}
	return size
}

func newEventWheel(size int) eventWheel {
	w := eventWheel{buckets: make([][]*DynInst, size), mask: int64(size - 1)}
	// Carve every bucket's initial capacity out of one slab: buckets are
	// drained to length 0 and reused each lap, so steady state allocates
	// only when a single cycle completes more than bucketCap events (the
	// bucket then keeps its grown capacity for the rest of the run).
	const bucketCap = 8
	slab := make([]*DynInst, size*bucketCap)
	for i := range w.buckets {
		w.buckets[i] = slab[i*bucketCap : i*bucketCap : (i+1)*bucketCap]
	}
	return w
}

// Len returns the number of scheduled (not yet due) events.
func (w *eventWheel) Len() int { return w.n }

// recycle empties the wheel for reuse by another CPU (see Arena),
// keeping every backing array. Record pointers retained beyond the
// truncation points reference pool-owned memory, never garbage.
func (w *eventWheel) recycle() {
	for i := range w.buckets {
		w.buckets[i] = w.buckets[i][:0]
	}
	w.due = w.due[:0]
	w.base, w.n = 0, 0
}

// push schedules d at d.DoneCycle. A cycle beyond the ring's horizon
// would alias a nearer slot, so it panics: the ring is sized so that no
// valid configuration reaches it.
func (w *eventWheel) push(d *DynInst) {
	t := d.DoneCycle
	if t < w.base {
		t = w.base // late push: fire at the next drain, as the heap did
	}
	if t >= w.base+int64(len(w.buckets)) {
		panic(fmt.Sprintf("core: completion of %v at cycle %d is beyond the event wheel's horizon (base %d, %d slots)",
			d, d.DoneCycle, w.base, len(w.buckets)))
	}
	s := t & w.mask
	d.wheelSlot = int32(s)
	w.buckets[s] = append(w.buckets[s], d)
	w.n++
}

// remove unschedules a completion (squash); a no-op when d is not
// scheduled — in particular for records already handed out by takeDue,
// which the writeback drain skips as released instead.
func (w *eventWheel) remove(d *DynInst) {
	if d.wheelSlot == eventNone {
		return
	}
	b := w.buckets[d.wheelSlot]
	for i, e := range b {
		if e == d {
			last := len(b) - 1
			b[i] = b[last]
			b[last] = nil
			w.buckets[d.wheelSlot] = b[:last]
			d.wheelSlot = eventNone
			w.n--
			return
		}
	}
	panic(fmt.Sprintf("core: event wheel desync for %v", d))
}

// nextDue returns the cycle of the earliest scheduled event strictly
// below limit, or limit when none is due before it — the exact target
// for an event-driven clock jump. It is read-only: no event moves, so a
// subsequent takeDue at (or before) the returned cycle drains exactly
// what a cycle-by-cycle walk would have. Cost is a ring scan bounded by
// the returned distance, so the work amortises to O(1) per skipped
// cycle.
func (w *eventWheel) nextDue(limit int64) int64 {
	if w.n == 0 {
		return limit
	}
	hi := w.base + int64(len(w.buckets))
	if hi > limit {
		hi = limit
	}
	for t := w.base; t < hi; t++ {
		if len(w.buckets[t&w.mask]) > 0 {
			return t
		}
	}
	return limit
}

// takeDue unschedules and returns every event due at cycle now, in
// (DoneCycle, Seq) order. The returned slice is reused by the next
// call. The caller processes the batch with mutation in flight: events
// it squashes mid-batch stay released (only dispatch, later in the
// cycle, reuses a released record) and are skipped by it, and events it
// pushes land at now+1 or later.
func (w *eventWheel) takeDue(now int64) []*DynInst {
	w.base = now + 1
	if w.n == 0 {
		return nil
	}
	// Swap the due bucket's backing with the previous batch's: the due
	// batch is handed out as-is and the old batch array becomes the
	// slot's fresh empty bucket, so draining moves no elements. Records
	// linger in the handed-out array until its next turn as a bucket,
	// which is fine — they are pool-owned and never garbage collected.
	s := now & w.mask
	due := w.buckets[s]
	w.buckets[s] = w.due[:0]
	w.due = due
	for _, d := range due {
		d.wheelSlot = eventNone
	}
	w.n -= len(due)
	// Insertion sort: due batches are a handful of events (about the
	// commit IPC), and bucket insertion order is arbitrary.
	for i := 1; i < len(due); i++ {
		d := due[i]
		j := i - 1
		for j >= 0 && (due[j].DoneCycle > d.DoneCycle ||
			(due[j].DoneCycle == d.DoneCycle && due[j].Seq > d.Seq)) {
			due[j+1] = due[j]
			j--
		}
		due[j+1] = d
	}
	return due
}
