package mem

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/config"
)

// replayAccesses drives an identical access mix through a hierarchy.
func replayAccesses(h *Hierarchy, seed int64, n int) {
	r := rand.New(rand.NewSource(seed))
	now := int64(0)
	for i := 0; i < n; i++ {
		now += int64(r.Intn(5))
		addr := uint64(r.Intn(1 << 22))
		switch r.Intn(4) {
		case 0:
			h.FetchLatency(now, addr)
		case 1:
			h.StoreCommit(addr)
		default:
			h.Load(now, addr)
		}
	}
}

// TestForkAdoptsWarmState: a fork of a warmed donor answers exactly
// like a hierarchy that replayed the warm-up itself, for every
// warm-compatible configuration (different latencies and prefetch).
func TestForkAdoptsWarmState(t *testing.T) {
	warm := func(h *Hierarchy) {
		for a := uint64(0); a < 1<<16; a += 8 {
			h.WarmData(a)
		}
		for pc := uint64(0); pc < 1<<12; pc += 32 {
			h.PrimeFetch(pc)
		}
	}

	donorCfg := config.Default()
	donor := NewHierarchy(donorCfg)
	warm(donor)

	member := config.Default()
	member.MemoryLatency = 400
	member.DL1.LatencyCycles = 3
	member.PrefetchDegree = 2
	forked, err := donor.Fork(member)
	if err != nil {
		t.Fatal(err)
	}
	if got := forked.Stats(); got != (HierarchyStats{}) {
		t.Fatalf("fork must start with zero stats, got %+v", got)
	}

	cold := NewHierarchy(member)
	warm(cold)
	replayAccesses(forked, 7, 6000)
	replayAccesses(cold, 7, 6000)
	if forked.Stats() != cold.Stats() {
		t.Fatalf("forked warm state diverges from cold warm-up:\n fork: %+v\n cold: %+v",
			forked.Stats(), cold.Stats())
	}
}

// TestForkRejectsGeometryMismatch: adopting cache contents across
// geometries would be silently wrong, so Fork must refuse.
func TestForkRejectsGeometryMismatch(t *testing.T) {
	donor := NewHierarchy(config.Default())
	bad := config.Default()
	bad.DL1.SizeBytes *= 2
	if _, err := donor.Fork(bad); err == nil {
		t.Fatal("fork across DL1 geometries must fail")
	}
	badL2 := config.Default()
	badL2.PerfectL2 = true
	if _, err := donor.Fork(badL2); err == nil {
		t.Fatal("fork across PerfectL2 settings must fail")
	}
}

// TestWarmKeyIgnoresTiming: latency, memory timing and prefetch degree
// never affect warm-up contents, so they must not split groups.
func TestWarmKeyIgnoresTiming(t *testing.T) {
	a := config.Default()
	b := config.Default()
	b.MemoryLatency = 100
	b.PrefetchDegree = 4
	b.IL1.LatencyCycles = 1
	b.L2.LatencyCycles = 20
	if WarmKeyFor(a) != WarmKeyFor(b) {
		t.Fatal("timing-only differences must share a WarmKey")
	}
	c := config.Default()
	c.L2.Assoc = 8
	if WarmKeyFor(a) == WarmKeyFor(c) {
		t.Fatal("geometry differences must split WarmKeys")
	}
}

// TestDonorErrorOrder: a key with several bad caches always names the
// first in Table 1 order (IL1, DL1, L2).
func TestDonorErrorOrder(t *testing.T) {
	k := WarmKeyFor(config.Default())
	k.IL1.LineBytes = 48
	k.L2.Assoc = 0
	for i := 0; i < 50; i++ {
		if _, err := k.Donor(); err == nil || !strings.HasPrefix(err.Error(), "mem: warm donor IL1: ") {
			t.Fatalf("call %d: Donor error = %v, want the IL1 error", i, err)
		}
	}
}

// TestWarmKeyDonorServesFork: the Donor built from a WarmKey alone is
// warm-compatible with every configuration sharing that key.
func TestWarmKeyDonorServesFork(t *testing.T) {
	cfg := config.Default()
	cfg.MemoryLatency = 777
	donor, err := WarmKeyFor(cfg).Donor()
	if err != nil {
		t.Fatal(err)
	}
	donor.WarmData(0x1234)
	forked, err := donor.Fork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := forked.Load(0, 0x1234)
	if r.MissedL2 {
		t.Fatal("fork lost the donor's warmed line")
	}
}

// TestSnapshotRoundTripForksIdentically: serialise → deserialise →
// Fork must match an in-process Fork bit-for-bit. This is the
// warm-donor shipping contract: a node that adopts a peer's snapshot
// must simulate exactly like one that forked the peer's donor
// directly.
func TestSnapshotRoundTripForksIdentically(t *testing.T) {
	cfg := config.Default()
	donor, err := WarmKeyFor(cfg).Donor()
	if err != nil {
		t.Fatal(err)
	}
	// Warm through the quiet paths (what core.WarmDonor uses) plus
	// enough traffic to exercise eviction and LRU ordering in all tiers.
	for a := uint64(0); a < 1<<18; a += 24 {
		donor.WarmData(a)
	}
	for pc := uint64(0); pc < 1<<13; pc += 16 {
		donor.PrimeFetch(pc)
	}

	var buf bytes.Buffer
	if err := donor.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	member := cfg
	member.MemoryLatency = 600
	member.PrefetchDegree = 1
	fromDonor, err := donor.Fork(member)
	if err != nil {
		t.Fatal(err)
	}
	fromSnapshot, err := restored.Fork(member)
	if err != nil {
		t.Fatal(err)
	}
	// Bit-for-bit: the forked hierarchies must be indistinguishable at
	// the struct level (flat arrays, live counts, timing, zero stats)...
	if !reflect.DeepEqual(fromDonor, fromSnapshot) {
		t.Fatal("fork of restored snapshot differs structurally from in-process fork")
	}
	// ...and behaviourally under identical continuation traffic.
	replayAccesses(fromDonor, 13, 8000)
	replayAccesses(fromSnapshot, 13, 8000)
	if fromDonor.Stats() != fromSnapshot.Stats() {
		t.Fatalf("forks diverged after identical traffic:\n donor:    %+v\n snapshot: %+v",
			fromDonor.Stats(), fromSnapshot.Stats())
	}
}

// TestSnapshotRejectsCorruption: torn and hostile snapshots must fail
// loudly, never produce a donor with inconsistent invariants.
func TestSnapshotRejectsCorruption(t *testing.T) {
	donor, err := WarmKeyFor(config.Default()).Donor()
	if err != nil {
		t.Fatal(err)
	}
	donor.WarmData(0x1000)
	var buf bytes.Buffer
	if err := donor.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Truncations at every structural boundary.
	for _, n := range []int{0, 4, 8, 11, len(good) / 2, len(good) - 1} {
		if _, err := ReadSnapshot(bytes.NewReader(good[:n])); err == nil {
			t.Errorf("truncation to %d bytes accepted", n)
		}
	}
	// Bad magic.
	bad := append([]byte(nil), good...)
	bad[0] ^= 0xFF
	if _, err := ReadSnapshot(bytes.NewReader(bad)); err == nil {
		t.Error("corrupt magic accepted")
	}
}

// TestHierarchySettleReusesTables: steady-state load traffic plus
// Settle, which sampled runs call between detailed windows, allocates
// nothing — the in-flight table keeps its backing arrays across the
// clear. Settle forgets pending fills and keeps the lines.
func TestHierarchySettleReusesTables(t *testing.T) {
	h := NewHierarchy(config.Default())
	// Populate all tiers and the in-flight tracker.
	replayAccesses(h, 11, 2000)
	r := rand.New(rand.NewSource(11))
	addrs := make([]uint64, 100)
	for i := range addrs {
		addrs[i] = uint64(r.Intn(1 << 22))
	}
	allocs := testing.AllocsPerRun(10, func() {
		for i, a := range addrs {
			h.Load(int64(i), a)
		}
		h.Settle()
	})
	if allocs > 0 {
		t.Errorf("Settle (plus steady-state traffic) allocates %.1f times per run, want 0", allocs)
	}
	const line = 0x7f00000
	if !h.Load(0, line).MissedL2 || !h.Load(5, line).MissedL2 {
		t.Fatal("a cold line must miss, and a load behind its fill must merge")
	}
	h.Settle()
	if got := h.Load(5, line); got.MissedL2 || got.Done != 7 {
		t.Errorf("load after Settle = %+v, want a DL1 hit done at 7", got)
	}
}
