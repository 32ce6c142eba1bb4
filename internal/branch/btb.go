package branch

import "fmt"

// BTB is a set-associative branch-target buffer keyed by fetch PC, for
// program-backed workloads: a direction predictor alone cannot redirect
// fetch; a taken prediction needs a target, and a BTB miss or a stale
// target is a misfetch even when the direction was right. It predicts
// targets only: which replayed branches a rollback already resolved is
// the core's positional record, not a property of a fetch PC.
//
// The BTB is deterministic: lookup order, LRU updates, and eviction
// choices are pure functions of the access sequence.
type BTB struct {
	sets    int
	ways    int
	entries []btbEntry
	clock   uint64
	stats   BTBStats
}

type btbEntry struct {
	valid  bool
	pc     uint64
	target uint64
	lru    uint64
}

// BTBStats counts target-buffer performance.
type BTBStats struct {
	// Lookups and Hits count fetch-time target queries.
	Lookups uint64
	Hits    uint64
	// BadTargets counts taken branches whose hit supplied a stale
	// target: a misfetch despite a correct direction prediction. The
	// core classifies these (the BTB cannot know the true target).
	BadTargets uint64
}

// HitRate returns Hits/Lookups, or 0 if unused.
func (s BTBStats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// NewBTB builds a BTB with the given geometry; sets must be a power of
// two.
func NewBTB(sets, ways int) *BTB {
	if sets < 1 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("branch: btb sets %d not a power of two", sets))
	}
	if ways < 1 {
		panic(fmt.Sprintf("branch: btb ways %d < 1", ways))
	}
	return &BTB{sets: sets, ways: ways, entries: make([]btbEntry, sets*ways)}
}

func (b *BTB) setBase(pc uint64) int {
	// Drop the low two bits: instructions are 4-byte aligned.
	return int((pc>>2)&uint64(b.sets-1)) * b.ways
}

func (b *BTB) find(pc uint64) *btbEntry {
	base := b.setBase(pc)
	for i := 0; i < b.ways; i++ {
		e := &b.entries[base+i]
		if e.valid && e.pc == pc {
			return e
		}
	}
	return nil
}

// Lookup queries the predicted target for the branch at pc, refreshing
// its recency on a hit.
func (b *BTB) Lookup(pc uint64) (target uint64, hit bool) {
	b.stats.Lookups++
	if e := b.find(pc); e != nil {
		b.stats.Hits++
		b.clock++
		e.lru = b.clock
		return e.target, true
	}
	return 0, false
}

// CountBadTarget records one taken branch whose BTB hit supplied the
// wrong target.
func (b *BTB) CountBadTarget() { b.stats.BadTargets++ }

// Install records the resolved target of a taken branch at pc,
// replacing the least recently used way of its set on a miss.
func (b *BTB) Install(pc, target uint64) {
	b.clock++
	if e := b.find(pc); e != nil {
		e.target = target
		e.lru = b.clock
		return
	}
	base := b.setBase(pc)
	var victim *btbEntry
	for i := 0; i < b.ways; i++ {
		e := &b.entries[base+i]
		if !e.valid {
			victim = e
			break
		}
		if victim == nil || e.lru < victim.lru {
			victim = e
		}
	}
	*victim = btbEntry{valid: true, pc: pc, target: target, lru: b.clock}
}

// Stats returns the accumulated counters.
func (b *BTB) Stats() BTBStats { return b.stats }
