// Package mem models the memory hierarchy of the simulated processor:
// set-associative LRU caches, an MSHR-style miss tracker that merges
// requests to in-flight lines (an addrmap.Map from line address to
// fill-completion cycle), and the main-memory latency model.
//
// Timing contract: all methods take and return absolute cycle numbers.
// The hierarchy is a passive timing oracle — the pipeline asks "if this
// load starts now, when is its value ready, and did it miss in L2?" and
// the hierarchy updates its replacement state as a side effect.
package mem

import (
	"fmt"

	"repro/internal/config"
)

// CacheStats counts accesses for one cache level.
type CacheStats struct {
	Accesses uint64
	Misses   uint64
}

// MissRate returns misses/accesses, or 0 for an untouched cache.
func (s CacheStats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is a set-associative cache with true-LRU replacement. It tracks
// only tags (the simulator never needs data values from memory).
type Cache struct {
	lineShift uint
	setMask   uint64
	latency   int
	assoc     int
	// ways holds every set's resident tags in one flat backing array:
	// set s occupies ways[s*assoc : s*assoc+live[s]] in LRU order
	// (index 0 is the most recently used way). A flat array keeps the
	// per-access lookup a single indexed load and makes Fork's adoption
	// and the snapshot a pair of flat copies instead of a per-set walk.
	ways []uint64
	// live[s] is the number of resident ways in set s.
	live  []int32
	stats CacheStats
}

// NewCache builds a cache from its configuration. It panics on invalid
// geometry; validate configurations with config.CacheConfig.Validate first.
func NewCache(cc config.CacheConfig) *Cache {
	if err := cc.Validate(); err != nil {
		panic(err)
	}
	sets := cc.Sets()
	return &Cache{
		lineShift: uint(log2(cc.LineBytes)),
		setMask:   uint64(sets - 1),
		latency:   cc.LatencyCycles,
		assoc:     cc.Assoc,
		ways:      make([]uint64, sets*cc.Assoc),
		live:      make([]int32, sets),
	}
}

func log2(v int) int {
	n := 0
	for 1<<n < v {
		n++
	}
	if 1<<n != v {
		panic(fmt.Sprintf("mem: %d is not a power of two", v))
	}
	return n
}

// Latency returns the hit latency in cycles.
func (c *Cache) Latency() int { return c.latency }

// LineAddr returns the line-aligned address containing addr.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr >> c.lineShift << c.lineShift }

// Access looks up addr, updates LRU state and statistics, and reports
// whether it hit. On a miss the line is allocated (fetch-on-miss,
// write-allocate) evicting the LRU way if needed.
func (c *Cache) Access(addr uint64) bool {
	c.stats.Accesses++
	if c.touch(addr >> c.lineShift) {
		return true
	}
	c.stats.Misses++
	return false
}

// accessQuiet performs a full access (LRU promotion on hit, allocation
// on miss) without counting statistics; warm-up replay uses it.
func (c *Cache) accessQuiet(addr uint64) {
	c.touch(addr >> c.lineShift)
}

// touch looks up tag, promoting it to MRU on hit; on a miss it
// allocates the line (evicting LRU if needed) and reports false.
func (c *Cache) touch(tag uint64) bool {
	si := int(tag & c.setMask)
	base := si * c.assoc
	n := int(c.live[si])
	set := c.ways[base : base+n]
	for i, t := range set {
		if t == tag {
			// Move to front (most recently used). Hand-rolled shift:
			// sets are a handful of ways, below memmove's call cost.
			for k := i; k > 0; k-- {
				set[k] = set[k-1]
			}
			set[0] = tag
			return true
		}
	}
	if n < c.assoc {
		n++
		c.live[si] = int32(n)
		set = c.ways[base : base+n]
	}
	for k := n - 1; k > 0; k-- {
		set[k] = set[k-1]
	}
	set[0] = tag
	return false
}

// Probe reports whether addr is resident without updating LRU state or
// statistics. Tests and invariant checks use it.
func (c *Cache) Probe(addr uint64) bool {
	tag := addr >> c.lineShift
	si := int(tag & c.setMask)
	base := si * c.assoc
	for _, t := range c.ways[base : base+int(c.live[si])] {
		if t == tag {
			return true
		}
	}
	return false
}

// prime allocates addr's line as the MRU way if it is absent, without
// touching LRU order when it is already resident and without counting
// statistics; the instruction-path warm-up uses it.
func (c *Cache) prime(addr uint64) {
	if !c.Probe(addr) {
		c.insert(addr >> c.lineShift)
	}
}

// insert allocates tag as the MRU way of its set, evicting LRU if full.
func (c *Cache) insert(tag uint64) {
	si := int(tag & c.setMask)
	base := si * c.assoc
	n := int(c.live[si])
	if n < c.assoc {
		n++
		c.live[si] = int32(n)
	}
	set := c.ways[base : base+n]
	for k := n - 1; k > 0; k-- {
		set[k] = set[k-1]
	}
	set[0] = tag
}

// adoptState copies donor's resident lines and LRU order into c,
// leaving c's own latency and statistics untouched. Geometry must match
// (Hierarchy.Fork checks it via WarmKey equality before calling).
func (c *Cache) adoptState(donor *Cache) {
	copy(c.ways, donor.ways)
	copy(c.live, donor.live)
}

// Stats returns a copy of the access counters.
func (c *Cache) Stats() CacheStats { return c.stats }
