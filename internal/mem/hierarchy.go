package mem

import (
	"fmt"

	"repro/internal/addrmap"
	"repro/internal/config"
	"repro/internal/queue"
)

// AccessResult describes the outcome of a data access.
type AccessResult struct {
	// Done is the absolute cycle at which the loaded value is available.
	Done int64
	// MissedL2 reports that the access had to go to main memory (or
	// merged with an in-flight main-memory request). The pipeline uses
	// it as the paper's "long latency load" classification.
	MissedL2 bool
}

// HierarchyStats aggregates counters across the hierarchy.
type HierarchyStats struct {
	IL1, DL1, L2 CacheStats
	// MemAccesses counts main-memory line fetches actually started
	// (merged requests are not double counted).
	MemAccesses uint64
	// MergedMisses counts L2 misses that merged with an in-flight line.
	MergedMisses uint64
	// StoreWrites counts committed stores drained to the hierarchy.
	StoreWrites uint64
	// Prefetches counts next-line fills started by the prefetcher.
	Prefetches uint64
}

// Hierarchy is the full memory system: IL1 + DL1 backed by a unified L2
// backed by main memory. Misses to the same L2 line merge MSHR-style.
//
// Bandwidth model: the Table 1 "Memory ports: 2" limit is enforced by the
// pipeline as a per-cycle data-cache access limit (see core); beyond that,
// memory-level parallelism is unconstrained, matching the paper's
// pseudo-perfect treatment of everything except the structures under study.
type Hierarchy struct {
	il1, dl1, l2 *Cache
	perfectL2    bool
	memLatency   int64
	prefetch     int
	warm         WarmKey

	// inflight tracks in-flight L2 line fills (fill-completion cycle per
	// line address, MSHR-style); fills lists the demand fills in start
	// order, for Expire to drop each one once it has landed.
	inflight addrmap.Map[int64]
	fills    queue.Deque[fill]
	stats    HierarchyStats
}

// fill is one demand fill: its line and the cycle it lands.
type fill struct {
	line  uint64
	ready int64
}

// NewHierarchy builds the memory system from the architectural config.
func NewHierarchy(cfg config.Config) *Hierarchy {
	return &Hierarchy{
		il1:        NewCache(cfg.IL1),
		dl1:        NewCache(cfg.DL1),
		l2:         NewCache(cfg.L2),
		perfectL2:  cfg.PerfectL2,
		memLatency: int64(cfg.MemoryLatency),
		prefetch:   cfg.PrefetchDegree,
		warm:       WarmKeyFor(cfg),
		// Unconstrained memory-level parallelism keeps roughly one line
		// in flight per few cycles of latency on streaming workloads, so
		// sizing the table to the latency skips the rehashes of growing
		// from the minimum on every simulation point.
		inflight: addrmap.New[int64](cfg.MemoryLatency),
	}
}

// WarmKey identifies the warm-relevant shape of a hierarchy: two
// configurations with equal WarmKeys reach bit-identical cache contents
// from the same warm-up replay, whatever their hit latencies, memory
// latency or prefetch degree (none of which the warm-up paths touch).
// It is comparable, so sweep engines use it directly as a grouping key.
type WarmKey struct {
	// IL1, DL1 and L2 are the cache geometries with LatencyCycles
	// zeroed: latency shapes timing, never contents.
	IL1, DL1, L2 config.CacheConfig
	// PerfectL2 changes what the warm-up writes (a perfect L2 is never
	// touched), so it splits groups.
	PerfectL2 bool
}

// WarmKeyFor returns the warm-relevant shape of cfg.
func WarmKeyFor(cfg config.Config) WarmKey {
	k := WarmKey{IL1: cfg.IL1, DL1: cfg.DL1, L2: cfg.L2, PerfectL2: cfg.PerfectL2}
	k.IL1.LatencyCycles = 0
	k.DL1.LatencyCycles = 0
	k.L2.LatencyCycles = 0
	return k
}

// Donor builds a hierarchy with k's geometry and placeholder timing,
// usable only for warm-up replay and Fork: sweep engines warm one donor
// per (trace, WarmKey) group and fork it to every member, so the
// donor's latencies are never observed. Geometry errors come back as
// errors (not panics) because a sweep worker must survive a bad point.
func (k WarmKey) Donor() (*Hierarchy, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	cfg := config.Config{IL1: k.IL1, DL1: k.DL1, L2: k.L2, PerfectL2: k.PerfectL2, MemoryLatency: 1}
	cfg.IL1.LatencyCycles = 1
	cfg.DL1.LatencyCycles = 1
	cfg.L2.LatencyCycles = 1
	// WarmKeyFor zeroes latencies, so the donor's own key equals k.
	return NewHierarchy(cfg), nil
}

// Validate reports a cache geometry Donor cannot build, first IL1,
// then DL1, then L2. A key that arrives from a peer is checked with it.
func (k WarmKey) Validate() error {
	for _, c := range []struct {
		name string
		cc   config.CacheConfig
	}{{"IL1", k.IL1}, {"DL1", k.DL1}, {"L2", k.L2}} {
		c.cc.LatencyCycles = 1 // the key carries no latency
		if err := c.cc.Validate(); err != nil {
			return fmt.Errorf("mem: warm donor %s: %w", c.name, err)
		}
	}
	return nil
}

// WarmKey returns the hierarchy's warm-relevant shape.
func (h *Hierarchy) WarmKey() WarmKey { return h.warm }

// Fork builds a fresh hierarchy for cfg that starts from h's current
// cache contents: the fork half of the snapshot-fork sweep kernel. The
// fork takes cfg's own latencies, prefetch degree and perfect-L2
// setting, zero statistics and an empty in-flight tracker; only the
// resident lines and their LRU order carry over (three flat copies).
// It fails if cfg's warm-relevant shape differs from h's — adopting
// cache state across geometries would be silently wrong.
func (h *Hierarchy) Fork(cfg config.Config) (*Hierarchy, error) {
	if k := WarmKeyFor(cfg); k != h.warm {
		return nil, fmt.Errorf("mem: fork geometry mismatch: donor %+v vs member %+v", h.warm, k)
	}
	nh := NewHierarchy(cfg)
	nh.il1.adoptState(h.il1)
	nh.dl1.adoptState(h.dl1)
	nh.l2.adoptState(h.l2)
	return nh, nil
}

// Load models a data load issued at cycle now.
func (h *Hierarchy) Load(now int64, addr uint64) AccessResult {
	// An in-flight fill of this line absorbs the request (MSHR merge).
	line := h.l2.LineAddr(addr)
	if ready, ok := h.inflight.Get(line); ok {
		if ready > now {
			h.stats.MergedMisses++
			return AccessResult{Done: ready, MissedL2: true}
		}
		h.inflight.Del(line)
	}

	done := now + int64(h.dl1.Latency())
	if h.dl1.Access(addr) {
		return AccessResult{Done: done}
	}

	done += int64(h.l2.Latency())
	if h.perfectL2 {
		return AccessResult{Done: done}
	}
	if h.l2.Access(addr) {
		return AccessResult{Done: done}
	}

	// Main memory. The line is resident (for replacement purposes) from
	// now on, but consumers must wait for the fill via the MSHR table.
	done += h.memLatency
	h.startFill(line, done)
	h.prefetchAfter(line, done)
	return AccessResult{Done: done, MissedL2: true}
}

// prefetchAfter starts next-line fills behind a demand miss. Prefetched
// lines become visible to the replacement state and arrive one cycle
// after the demand line per degree step (a simple streaming engine).
func (h *Hierarchy) prefetchAfter(line uint64, done int64) {
	for i := 1; i <= h.prefetch; i++ {
		next := line + uint64(i)*uint64(1)<<h.l2.lineShift
		if h.l2.Probe(next) {
			continue
		}
		if _, busy := h.inflight.Get(next); busy {
			continue
		}
		h.l2.insert(next >> h.l2.lineShift)
		h.inflight.Put(next, done+int64(i))
		h.stats.Prefetches++
	}
}

// FetchLatency models an instruction fetch of pc at cycle now and returns
// the cycle the fetch group is available. Instruction fetches that miss
// IL1 go to L2 and, if needed, memory, reusing the same line tracker.
func (h *Hierarchy) FetchLatency(now int64, pc uint64) int64 {
	line := h.l2.LineAddr(pc)
	if ready, ok := h.inflight.Get(line); ok {
		if ready > now {
			return ready
		}
		h.inflight.Del(line)
	}
	done := now + int64(h.il1.Latency())
	if h.il1.Access(pc) {
		return done
	}
	done += int64(h.l2.Latency())
	if h.perfectL2 || h.l2.Access(pc) {
		return done
	}
	done += h.memLatency
	h.startFill(line, done)
	return done
}

// startFill starts a main-memory fill of line that lands at ready.
// With the prefetcher on it records nothing for Expire: prefetchAfter
// reads every entry, landed or not, as busy, so the table must keep
// them all.
func (h *Hierarchy) startFill(line uint64, ready int64) {
	h.inflight.Put(line, ready)
	h.stats.MemAccesses++
	if h.prefetch == 0 {
		h.fills.PushBack(fill{line, ready})
	}
}

// Expire drops the demand fills that landed at or before now, taking
// them in start order while the oldest has landed (fills of different
// latencies may land slightly out of order). An entry a later fill of
// the same line has replaced stays for that fill. The pipeline calls it
// at the top of every cycle: every later lookup passes a cycle at least
// now and reads a landed entry as absent, so dropping one changes no
// result, and the table holds the fills in flight rather than every
// line a run has missed.
func (h *Hierarchy) Expire(now int64) {
	for h.fills.Len() > 0 && h.fills.Front().ready <= now {
		f := h.fills.PopFront()
		if ready, ok := h.inflight.Get(f.line); ok && ready == f.ready {
			h.inflight.Del(f.line)
		}
	}
}

// FetchFillReady reports the cycle an in-flight miss covering pc's line
// will land, or -1 when no fill later than now is pending — a pure
// preview of the FetchLatency fast path. The event-driven clock skip
// uses it to bound a jump: while the fill is in flight FetchLatency
// keeps answering "ready", but the cycle it lands the front end can
// make progress, so the skip must stop there.
func (h *Hierarchy) FetchFillReady(now int64, pc uint64) int64 {
	if ready, ok := h.inflight.Get(h.l2.LineAddr(pc)); ok && ready > now {
		return ready
	}
	return -1
}

// ReplayFetchHits replays n statistics-only IL1 fetch hits. A quiescent
// front end re-probing the same resident line every stall cycle counts
// one IL1 hit per cycle without changing any replacement state; the
// clock skip elides the probes and replays their counter deltas here so
// the statistics stay bit-identical to the cycle-by-cycle run.
func (h *Hierarchy) ReplayFetchHits(n uint64) {
	h.il1.stats.Accesses += n
}

// StoreCommit drains a committed store into the hierarchy, updating
// replacement state. Commit is never blocked by stores (ideal write
// buffer), so no completion time is returned.
func (h *Hierarchy) StoreCommit(addr uint64) {
	h.stats.StoreWrites++
	if h.dl1.Access(addr) {
		return
	}
	if !h.perfectL2 {
		h.l2.Access(addr)
	}
}

// PrimeFetch preloads the line containing pc into IL1 and L2 without
// touching statistics. Harnesses use it to warm the instruction path:
// the paper's 300M-instruction SimPoints amortise cold code misses to
// nothing, which short simulations must emulate explicitly.
func (h *Hierarchy) PrimeFetch(pc uint64) {
	h.il1.prime(pc)
	if !h.perfectL2 {
		h.l2.prime(pc)
	}
}

// WarmData replays one data access through DL1 and L2 without counting
// statistics. Harnesses run the whole trace through it once before
// simulating, emulating the warm caches a long-running benchmark would
// have: resident working sets stay, streaming footprints evict
// themselves back to their steady state.
func (h *Hierarchy) WarmData(addr uint64) {
	h.dl1.accessQuiet(addr)
	if !h.perfectL2 {
		h.l2.accessQuiet(addr)
	}
}

// Stats returns a copy of the aggregate counters.
func (h *Hierarchy) Stats() HierarchyStats {
	s := h.stats
	s.IL1 = h.il1.Stats()
	s.DL1 = h.dl1.Stats()
	s.L2 = h.l2.Stats()
	return s
}

// Settle clears the in-flight fill tracker while keeping all cache
// contents. Sampled runs call it between detailed windows: fill
// completion times are absolute cycles of the window that issued them
// and would read as pending (or long past) on the next window's fresh
// clock, whereas the lines themselves are exactly the long-lived state
// functional warming preserves.
func (h *Hierarchy) Settle() {
	h.inflight.Clear()
	h.fills.Clear()
}
