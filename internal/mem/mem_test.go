package mem

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/config"
)

func smallCache() *Cache {
	// 2 sets x 2 ways x 32-byte lines = 128 bytes.
	return NewCache(config.CacheConfig{SizeBytes: 128, Assoc: 2, LineBytes: 32, LatencyCycles: 2})
}

func TestCacheHitMiss(t *testing.T) {
	c := smallCache()
	if c.Access(0x1000) {
		t.Fatal("cold access must miss")
	}
	if !c.Access(0x1000) {
		t.Fatal("second access must hit")
	}
	if !c.Access(0x101F) {
		t.Fatal("same line must hit")
	}
	if c.Access(0x1020) {
		t.Fatal("next line must miss")
	}
	s := c.Stats()
	if s.Accesses != 4 || s.Misses != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if got := s.MissRate(); got != 0.5 {
		t.Fatalf("miss rate %v, want 0.5", got)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := smallCache()
	// Three lines mapping to the same set (set index = bit 5).
	a, b, d := uint64(0x0000), uint64(0x0040), uint64(0x0080)
	c.Access(a)
	c.Access(b)
	c.Access(a) // a becomes MRU
	c.Access(d) // evicts b (LRU)
	if !c.Probe(a) {
		t.Error("a should survive (MRU)")
	}
	if c.Probe(b) {
		t.Error("b should be evicted (LRU)")
	}
	if !c.Probe(d) {
		t.Error("d should be resident")
	}
}

func TestCacheProbeDoesNotTouch(t *testing.T) {
	c := smallCache()
	c.Access(0x0000)
	before := c.Stats()
	c.Probe(0x0000)
	c.Probe(0x9999)
	if c.Stats() != before {
		t.Error("Probe must not change statistics")
	}
}

func TestLog2Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-power-of-two line")
		}
	}()
	NewCache(config.CacheConfig{SizeBytes: 96, Assoc: 1, LineBytes: 48, LatencyCycles: 1})
}

// TestCacheLRUModel compares the cache against a reference LRU model
// under random access streams.
func TestCacheLRUModel(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := smallCache()
		// Model: per set, slice of tags in MRU order, max 2 ways.
		model := map[uint64][]uint64{}
		for _, a16 := range addrs {
			addr := uint64(a16)
			tag := addr >> 5
			set := tag & 1
			tags := model[set]
			hit := false
			for i, tg := range tags {
				if tg == tag {
					copy(tags[1:i+1], tags[:i])
					tags[0] = tag
					hit = true
					break
				}
			}
			if !hit {
				tags = append([]uint64{tag}, tags...)
				if len(tags) > 2 {
					tags = tags[:2]
				}
				model[set] = tags
			}
			if got := c.Access(addr); got != hit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}

func defaultHierarchy() *Hierarchy {
	return NewHierarchy(config.Default())
}

func TestHierarchyLoadLatencies(t *testing.T) {
	h := defaultHierarchy()
	// Cold: DL1(2) + L2(10) + memory(1000).
	r := h.Load(0, 0x100000)
	if r.Done != 1012 || !r.MissedL2 {
		t.Fatalf("cold load: %+v, want done=1012 missedL2", r)
	}
	// While in flight, another load to the same line merges.
	r2 := h.Load(5, 0x100008)
	if r2.Done != 1012 || !r2.MissedL2 {
		t.Fatalf("merged load: %+v", r2)
	}
	// After the fill, the line hits in DL1.
	r3 := h.Load(2000, 0x100000)
	if r3.Done != 2002 || r3.MissedL2 {
		t.Fatalf("warm load: %+v, want done=2002 hit", r3)
	}
	st := h.Stats()
	if st.MemAccesses != 1 || st.MergedMisses != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestHierarchyL2Hit(t *testing.T) {
	h := defaultHierarchy()
	h.Load(0, 0x200000)
	// Evict from DL1 (32KB, 4-way, 32B lines: 256 sets) by loading many
	// lines mapping to the same DL1 set but different L2 sets.
	for i := 1; i <= 8; i++ {
		h.Load(2000+int64(i), 0x200000+uint64(i)<<13)
	}
	r := h.Load(60000, 0x200000)
	if r.MissedL2 {
		t.Fatal("line should still be in L2")
	}
	if r.Done != 60012 {
		t.Fatalf("L2 hit latency: done=%d, want 60012 (2+10)", r.Done)
	}
}

func TestHierarchyPerfectL2(t *testing.T) {
	cfg := config.Default()
	cfg.PerfectL2 = true
	h := NewHierarchy(cfg)
	r := h.Load(0, 0xABC000)
	if r.MissedL2 || r.Done != 12 {
		t.Fatalf("perfect L2 cold load: %+v, want done=12", r)
	}
	if h.Load(0, 0xDEF000).MissedL2 {
		t.Error("perfect L2 never misses")
	}
}

func TestHierarchyStoreCommit(t *testing.T) {
	h := defaultHierarchy()
	h.StoreCommit(0x300000)
	if got := h.Stats().StoreWrites; got != 1 {
		t.Fatalf("store writes = %d", got)
	}
	// The stored line is now resident: loads hit.
	r := h.Load(100, 0x300000)
	if r.MissedL2 {
		t.Error("store should have allocated the line")
	}
}

func TestHierarchyFetch(t *testing.T) {
	h := defaultHierarchy()
	done := h.FetchLatency(0, 0x40)
	if done != 1012 {
		t.Fatalf("cold fetch done=%d, want 1012", done)
	}
	done = h.FetchLatency(2000, 0x40)
	if done != 2002 {
		t.Fatalf("warm fetch done=%d, want 2002", done)
	}
}

func TestPrimeFetch(t *testing.T) {
	h := defaultHierarchy()
	h.PrimeFetch(0x40)
	if got := h.FetchLatency(0, 0x40); got != 2 {
		t.Fatalf("primed fetch done=%d, want 2", got)
	}
	if h.Stats().IL1.Misses != 0 {
		t.Error("priming must not count misses")
	}
}

func TestWarmData(t *testing.T) {
	h := defaultHierarchy()
	h.WarmData(0x500000)
	if h.Stats().DL1.Accesses != 0 {
		t.Error("warmup must not count accesses")
	}
	r := h.Load(0, 0x500000)
	if r.MissedL2 || r.Done != 2 {
		t.Fatalf("warmed load: %+v, want DL1 hit", r)
	}
}

// TestHierarchyMonotonicDone: completion times never precede issue.
func TestHierarchyMonotonicDone(t *testing.T) {
	h := defaultHierarchy()
	f := func(addrs []uint32, starts []uint16) bool {
		now := int64(0)
		for i, a := range addrs {
			if i < len(starts) {
				now += int64(starts[i] % 100)
			}
			r := h.Load(now, uint64(a))
			if r.Done < now+2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Error(err)
	}
}

func TestPrefetcher(t *testing.T) {
	cfg := config.Default()
	cfg.PrefetchDegree = 2
	h := NewHierarchy(cfg)
	r := h.Load(0, 0x800000)
	if !r.MissedL2 {
		t.Fatal("demand miss expected")
	}
	if got := h.Stats().Prefetches; got != 2 {
		t.Fatalf("prefetches = %d, want 2", got)
	}
	// The next line arrives with the demand fill; after arrival it is
	// an L2 hit, not a memory access.
	r2 := h.Load(2000, 0x800040)
	if r2.MissedL2 {
		t.Fatal("prefetched line should hit after arrival")
	}
	if r2.Done != 2012 {
		t.Fatalf("prefetched hit done=%d, want L2 latency (2012)", r2.Done)
	}
	// A demand load racing the in-flight prefetch merges with it.
	h.Load(3000, 0x900000) // new miss prefetches 0x900040
	// Demand fill completes at 3000+2+10+1000 = 4012; the degree-1
	// prefetch lands one cycle later.
	r3 := h.Load(3001, 0x900040)
	if !r3.MissedL2 || r3.Done != 4013 {
		t.Fatalf("racing load should merge with the prefetch: %+v", r3)
	}
	if got := h.Stats().MemAccesses; got != 2 {
		t.Fatalf("memory accesses = %d, want 2 (prefetches not counted)", got)
	}
}

func TestPrefetcherDisabledByDefault(t *testing.T) {
	h := defaultHierarchy()
	h.Load(0, 0xA00000)
	if h.Stats().Prefetches != 0 {
		t.Fatal("prefetcher must be off in the paper's configuration")
	}
}

// TestExpireKeepsOnlyFillsInFlight: over a run that misses a new line
// every cycle, with Expire called at the top of each cycle, the
// in-flight table holds exactly the fills that have not landed, while
// every load, merged and landed revisits included, answers as it does
// on a hierarchy that never expires anything.
func TestExpireKeepsOnlyFillsInFlight(t *testing.T) {
	expiring, plain := defaultHierarchy(), defaultHierarchy()
	var lands []int64 // landing cycle of every fill started, in start order
	landed := 0       // lands[:landed] landed at or before the current cycle
	const cycles = 5000
	for now := int64(0); now < cycles; now++ {
		expiring.Expire(now)
		// A new line, one whose fill is in flight (a merge), and one
		// whose fill landed long ago.
		for _, back := range []int64{0, 700, 1500} {
			if back > now {
				continue
			}
			addr := uint64(now-back) << 8
			started := expiring.Stats().MemAccesses
			got, want := expiring.Load(now, addr), plain.Load(now, addr)
			if got != want {
				t.Fatalf("cycle %d: load of %#x = %+v with Expire, %+v without", now, addr, got, want)
			}
			if expiring.Stats().MemAccesses > started {
				lands = append(lands, got.Done)
			}
		}
		for landed < len(lands) && lands[landed] <= now {
			landed++
		}
		if n, inFlight := expiring.inflight.Len(), len(lands)-landed; n != inFlight {
			t.Fatalf("cycle %d: table holds %d entries, %d fills in flight", now, n, inFlight)
		}
	}
	if expiring.Stats() != plain.Stats() {
		t.Errorf("stats with Expire %+v, without %+v", expiring.Stats(), plain.Stats())
	}
	if n := plain.inflight.Len(); n < cycles/2 {
		t.Errorf("without Expire the table ends at %d entries; the run does not exercise growth", n)
	}
	t.Logf("table at the end: %d entries with Expire, %d without", expiring.inflight.Len(), plain.inflight.Len())
}
