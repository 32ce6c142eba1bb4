package queue

import "fmt"

// SLIQ is the Slow Lane Instruction Queue of the paper's section 3: a
// large, cheap, in-order secondary buffer holding instructions that
// depend on long-latency loads. It needs no wakeup CAM — each resident
// is tagged with the destination register of the long-latency load it
// transitively depends on (its trigger), and the caller keeps that
// trigger wait on the register's own wait list. When the trigger
// register is written, the caller starts the resident's wake process
// (Wake): after a configurable start-up delay, woken residents re-enter
// the issue queue at a configurable width per cycle, oldest first
// ("linearly from one point", as the paper puts it). Woken residents
// wait in a seqHeap, the ordered set behind the issue queues' ready
// entries.
//
// The SLIQ itself holds only the slot count and the wake pump. A woken
// resident is a seq-checked reference to its payload: it is live while
// the caller's liveness test (bound at construction) accepts the seq and
// payload. A squash frees the slot at once (Squash) and makes the
// payload dead; a woken one stays in the wake set and is dropped when
// Drain next reaches it.
type SLIQ[P any] struct {
	// capacity is read only by Insert's fullness test (Cap serves
	// diagnostics), so a run that no Insert ever refused is the same run
	// at any larger capacity. sim.Sweep relies on this to reuse one run
	// for every larger SLIQ of a sweep.
	capacity int
	delay    int64
	width    int
	live     func(seq uint64, payload P) bool

	// occupied counts the live residents, waiting or woken.
	occupied int
	// wakeable orders woken residents oldest first, dead ones included
	// until the pump reaches them.
	wakeable seqHeap[sliqWake[P]]

	stats SLIQStats
}

// SLIQStats counts slow-lane activity.
type SLIQStats struct {
	Inserted   uint64
	Woken      uint64 // re-inserted into the issue queue
	Squashed   uint64 // slots freed by Squash
	FullStalls uint64
	Wakes      uint64 // wake processes begun (one per Wake)
}

// sliqWake is one woken resident: its payload and the cycle from which
// it may re-enter the issue queue.
type sliqWake[P any] struct {
	payload    P
	eligibleAt int64
}

// NewSLIQ builds a slow lane queue. capacity is the entry count; delay
// is the start-up penalty in cycles between the trigger register write
// and the first re-insertion (the paper uses 4 and shows insensitivity
// from 1 to 12 in Figure 10); width is the re-insertion bandwidth per
// cycle (4 in the paper); live is the liveness test of a woken
// resident's payload (see SLIQ).
func NewSLIQ[P any](capacity, delay, width int, live func(seq uint64, payload P) bool) *SLIQ[P] {
	if capacity < 1 {
		panic(fmt.Sprintf("queue: SLIQ capacity %d < 1", capacity))
	}
	if delay < 0 || width < 1 {
		panic(fmt.Sprintf("queue: SLIQ delay %d / width %d invalid", delay, width))
	}
	return &SLIQ[P]{capacity: capacity, delay: int64(delay), width: width, live: live}
}

// Cap returns the capacity.
func (s *SLIQ[P]) Cap() int { return s.capacity }

// Len returns the number of live residents.
func (s *SLIQ[P]) Len() int { return s.occupied }

// Insert takes a slot for an instruction moving into the slow lane. It
// returns false when the SLIQ is full (the instruction then stays in the
// issue queue, consuming a precious entry — the caller's fallback).
func (s *SLIQ[P]) Insert() bool {
	if s.occupied >= s.capacity {
		s.stats.FullStalls++
		return false
	}
	s.occupied++
	s.stats.Inserted++
	return true
}

// Squash frees the slot of a resident whose payload the caller has just
// made dead. A woken one leaves the wake set when Drain next reaches it.
func (s *SLIQ[P]) Squash() {
	if s.occupied == 0 {
		panic("queue: SLIQ squash with no resident entry")
	}
	s.occupied--
	s.stats.Squashed++
}

// Wake starts the wake process of a live, waiting resident whose trigger
// register was written at cycle now: it becomes eligible for
// re-insertion delay cycles later. Each resident wakes at most once.
func (s *SLIQ[P]) Wake(seq uint64, payload P, now int64) {
	s.wakeable.push(seq, sliqWake[P]{payload: payload, eligibleAt: now + s.delay})
	s.stats.Wakes++
}

// Drain offers eligible live residents to the pipeline oldest-first, up
// to the configured width per cycle, dropping the dead ones it passes.
// accept re-inserts the instruction into its issue queue (or issues it
// directly) and returns true; returning false retains the resident at
// the head and stops this cycle's pump — the walk is strictly in order,
// as in the paper.
func (s *SLIQ[P]) Drain(now int64, accept func(seq uint64, payload P) bool) int {
	drained := 0
	for drained < s.width {
		it, ok := s.wakeable.front()
		if !ok {
			break
		}
		if !s.live(it.seq, it.v.payload) {
			s.wakeable.pop()
			continue
		}
		if it.v.eligibleAt > now {
			// The oldest woken resident is still in its start-up
			// delay; the pump walks in order, so younger ones wait
			// behind it (matches the paper's sequential walk).
			break
		}
		if !accept(it.seq, it.v.payload) {
			break
		}
		s.wakeable.pop()
		s.occupied--
		s.stats.Woken++
		drained++
	}
	return drained
}

// NextWake returns the earliest cycle at which Drain could offer a
// resident to the pipeline, or -1 when none is woken (waiting residents
// wake only through Wake, at a register write the caller can see
// coming). The walk is strictly in order, so the head alone determines
// the answer; a dead head, which the next Drain drops, is reported as
// "now" (0) — callers treating the result as a quiescence bound must
// then not skip, which is always safe. The event-driven clock skip uses
// this to bound its jump.
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
