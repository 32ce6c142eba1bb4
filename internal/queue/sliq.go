package queue

import (
	"fmt"

	"repro/internal/rename"
)

// SLIQ is the Slow Lane Instruction Queue of the paper's section 3: a
// large, cheap, in-order secondary buffer holding instructions that
// depend on long-latency loads. It needs no wakeup CAM — each entry is
// tagged with the destination register of the long-latency load it
// transitively depends on (its trigger). When the trigger register is
// written, a wake process begins: after a configurable start-up delay,
// entries re-enter the issue queue at a configurable width per cycle,
// oldest first ("linearly from one point", as the paper puts it). Woken
// entries wait in a seqHeap, the ordered set behind the issue queues'
// ready entries.
//
// An entry is a seq-checked reference to its payload: it is live while
// the caller's liveness test (bound at construction) accepts the
// entry's seq and payload. A squash frees the slot at once (Squash) and
// makes the payload dead; the entry stays in its waiting list or the
// wake set, never wakes, and is dropped and recycled when TriggerReady
// or Drain next reaches it.
//
// Entries recycle through an internal free list and the trigger index is
// a slice over the physical-register space, so steady-state inserts and
// trigger writes allocate nothing.
type SLIQ[P any] struct {
	// capacity is read only by Insert's fullness test (Cap serves
	// diagnostics), so a run that no Insert ever refused is the same run
	// at any larger capacity. sim.Sweep relies on this to reuse one run
	// for every larger SLIQ of a sweep.
	capacity int
	delay    int64
	width    int
	live     func(seq uint64, payload P) bool

	// occupied counts the live residents; waitingN counts the entries in
	// the waiting lists, dead ones included.
	occupied, waitingN int
	// waiting[reg] holds the not-yet-woken entries tagged with reg.
	waiting [][]*sliqEntry[P]
	// wakeable orders woken entries oldest first.
	wakeable seqHeap[*sliqEntry[P]]
	// free recycles entry records (TriggerReady and Drain feed it;
	// Insert consumes it).
	free []*sliqEntry[P]

	stats SLIQStats
}

// SLIQStats counts slow-lane activity.
type SLIQStats struct {
	Inserted   uint64
	Woken      uint64 // re-inserted into the issue queue
	Squashed   uint64 // slots freed by Squash
	FullStalls uint64
	WakeStarts uint64 // wake processes begun (one per trigger write)
}

type sliqEntry[P any] struct {
	seq        uint64
	payload    P
	eligibleAt int64 // cycle from which it may re-enter the IQ; -1 = waiting
}

// NewSLIQ builds a slow lane queue. capacity is the entry count; delay
// is the start-up penalty in cycles between the trigger register write
// and the first re-insertion (the paper uses 4 and shows insensitivity
// from 1 to 12 in Figure 10); width is the re-insertion bandwidth per
// cycle (4 in the paper); nRegs bounds the trigger register name space
// (the physical register file size); live is the liveness test of an
// entry's payload (see SLIQ).
func NewSLIQ[P any](capacity, delay, width, nRegs int, live func(seq uint64, payload P) bool) *SLIQ[P] {
	if capacity < 1 {
		panic(fmt.Sprintf("queue: SLIQ capacity %d < 1", capacity))
	}
	if delay < 0 || width < 1 {
		panic(fmt.Sprintf("queue: SLIQ delay %d / width %d invalid", delay, width))
	}
	if nRegs < 1 {
		panic(fmt.Sprintf("queue: SLIQ register space %d < 1", nRegs))
	}
	return &SLIQ[P]{
		capacity: capacity,
		delay:    int64(delay),
		width:    width,
		live:     live,
		waiting:  make([][]*sliqEntry[P], nRegs),
	}
}

// Cap returns the capacity.
func (s *SLIQ[P]) Cap() int { return s.capacity }

// Len returns the number of live resident entries.
func (s *SLIQ[P]) Len() int { return s.occupied }

// Insert moves an instruction into the slow lane, tagged with the
// physical register of the long-latency load it waits on. It returns
// false when the SLIQ is full (the instruction then stays in the issue
// queue, consuming a precious entry — the caller's fallback).
func (s *SLIQ[P]) Insert(seq uint64, trigger rename.PhysReg, payload P) bool {
	if s.occupied >= s.capacity {
		s.stats.FullStalls++
		return false
	}
	var e *sliqEntry[P]
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		e = new(sliqEntry[P])
	}
	*e = sliqEntry[P]{seq: seq, payload: payload, eligibleAt: -1}
	s.waiting[trigger] = append(s.waiting[trigger], e)
	s.occupied++
	s.waitingN++
	s.stats.Inserted++
	return true
}

// Squash frees the slot of a resident entry whose payload the caller
// has just made dead. The entry itself leaves when TriggerReady or Drain
// next reaches it.
func (s *SLIQ[P]) Squash() {
	if s.occupied == 0 {
		panic("queue: SLIQ squash with no resident entry")
	}
	s.occupied--
	s.stats.Squashed++
}

// recycle returns a no-longer-referenced entry to the free list.
func (s *SLIQ[P]) recycle(e *sliqEntry[P]) {
	var zero P
	e.payload = zero
	s.free = append(s.free, e)
}

// TriggerReady starts the wake process for every live entry waiting on
// reg: they become eligible for re-insertion delay cycles after now.
// Dead entries waiting on reg leave the SLIQ.
func (s *SLIQ[P]) TriggerReady(reg rename.PhysReg, now int64) {
	if s.waitingN == 0 {
		// Every waiting list is empty; skip the per-register index
		// probe (writeback calls this for every completed value).
		return
	}
	entries := s.waiting[reg]
	if len(entries) == 0 {
		return
	}
	s.waiting[reg] = entries[:0]
	s.waitingN -= len(entries)
	started := false
	for i, e := range entries {
		entries[i] = nil
		if !s.live(e.seq, e.payload) {
			s.recycle(e)
			continue
		}
		e.eligibleAt = now + s.delay
		s.wakeable.push(e.seq, e)
		started = true
	}
	if started {
		s.stats.WakeStarts++
	}
}

// Drain offers eligible live entries to the pipeline oldest-first, up to
// the configured width per cycle, dropping the dead ones it passes.
// accept re-inserts the instruction into its issue queue (or issues it
// directly) and returns true; returning false retains the entry at the
// head and stops this cycle's pump — the walk is strictly in order, as
// in the paper.
func (s *SLIQ[P]) Drain(now int64, accept func(seq uint64, payload P) bool) int {
	drained := 0
	for drained < s.width {
		it, ok := s.wakeable.front()
		if !ok {
			break
		}
		e := it.v
		if !s.live(e.seq, e.payload) {
			s.wakeable.pop()
			s.recycle(e)
			continue
		}
		if e.eligibleAt > now {
			// The oldest wakeable entry is still in its start-up
			// delay; the pump walks in order, so younger entries
			// wait behind it (matches the paper's sequential walk).
			break
		}
		if !accept(e.seq, e.payload) {
			break
		}
		s.wakeable.pop()
		s.recycle(e)
		s.occupied--
		s.stats.Woken++
		drained++
	}
	return drained
}

// NextWake returns the earliest cycle at which Drain could offer an
// entry to the pipeline, or -1 when no entry is woken (waiting entries
// become wakeable only through TriggerReady, an event the caller can
// see coming). The walk is strictly in order, so the head alone
// determines the answer; a dead head, which the next Drain drops, is
// reported as "now" (0) — callers treating the result as a quiescence
// bound must then not skip, which is always safe. The event-driven
// clock skip uses this to bound its jump.
func (s *SLIQ[P]) NextWake() int64 {
	it, ok := s.wakeable.front()
	switch {
	case !ok:
		return -1
	case !s.live(it.seq, it.v.payload):
		return 0
	}
	return it.v.eligibleAt
}

// Stats returns a copy of the counters.
func (s *SLIQ[P]) Stats() SLIQStats { return s.stats }
