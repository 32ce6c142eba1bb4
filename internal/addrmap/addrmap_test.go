package addrmap

import (
	"math/rand"
	"testing"
)

// checkModel drives m and a Go map through the same random mix of Put,
// Get and Del over a small key space (so probe chains collide and
// deletions shift them), growing m from its starting size, and fails on
// the first disagreement. val builds the value stored by the i-th op.
func checkModel[V comparable](t *testing.T, m *Map[V], seed int64, val func(i int) V) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	ref := map[uint64]V{}
	// Keys cluster in a few strided runs: consecutive lines, and lines
	// a power of two apart, are what the hierarchy and the LSQ insert.
	keys := make([]uint64, 0, 300)
	for i := uint64(0); i < 100; i++ {
		keys = append(keys, i, 0x4000+i*64, 1<<40+i*4096)
	}
	for i := 0; i < 20000; i++ {
		k := keys[r.Intn(len(keys))]
		switch r.Intn(3) {
		case 0:
			v := val(i)
			m.Put(k, v)
			ref[k] = v
		case 1:
			m.Del(k)
			delete(ref, k)
		default:
			v, ok := m.Get(k)
			rv, rok := ref[k]
			if ok != rok || v != rv {
				t.Fatalf("op %d: Get(%#x) = %v, %v; want %v, %v", i, k, v, ok, rv, rok)
			}
		}
		if m.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, want %d", i, m.Len(), len(ref))
		}
	}
	seen := 0
	m.ForEach(func(k uint64, v V) {
		seen++
		if rv, ok := ref[k]; !ok || v != rv {
			t.Fatalf("ForEach visited %#x = %v, want %v (present %v)", k, v, rv, ok)
		}
	})
	if seen != len(ref) {
		t.Fatalf("ForEach visited %d keys, want %d", seen, len(ref))
	}
}

// TestModelInt64 is the in-flight fill tracker's shape: int64 values,
// starting from a pre-sized table.
func TestModelInt64(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		m := New[int64](100)
		checkModel(t, &m, seed, func(i int) int64 { return int64(i) })
	}
}

// TestModelPointer is the store index's shape: pointer values, starting
// from the zero value. A deleted slot must not keep its pointer.
func TestModelPointer(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		var m Map[*int]
		checkModel(t, &m, seed, func(i int) *int { return &i })
		m.Clear()
		for i, k := range m.keys {
			if k != 0 || m.vals[i] != nil {
				t.Fatalf("slot %d holds %#x/%v after Clear", i, k, m.vals[i])
			}
		}
	}
}

// TestSizing: New rounds up to a power of two of at least 64 slots, the
// zero value grows from 64, and Clear keeps the grown arrays.
func TestSizing(t *testing.T) {
	for _, c := range []struct{ n, slots int }{{0, 64}, {64, 64}, {65, 128}, {100, 128}, {1000, 1024}} {
		if m := New[int64](c.n); len(m.keys) != c.slots {
			t.Errorf("New(%d): %d slots, want %d", c.n, len(m.keys), c.slots)
		}
	}
	var m Map[int64]
	if _, ok := m.Get(7); ok || m.Len() != 0 {
		t.Fatal("zero map must be empty")
	}
	m.Del(7)
	m.Put(7, 1)
	if len(m.keys) != 64 {
		t.Fatalf("zero map grew to %d slots, want 64", len(m.keys))
	}
	for k := uint64(0); k < 200; k++ {
		m.Put(k, int64(k))
	}
	grown := len(m.keys)
	m.Clear()
	if m.Len() != 0 || len(m.keys) != grown {
		t.Fatalf("Clear: len %d, %d slots; want 0, %d", m.Len(), len(m.keys), grown)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		for k := uint64(0); k < 100; k++ {
			m.Put(k*64, int64(k))
		}
		for k := uint64(0); k < 100; k++ {
			m.Del(k * 64)
		}
	}); allocs != 0 {
		t.Errorf("steady-state Put/Del allocates %.1f times, want 0", allocs)
	}
}
