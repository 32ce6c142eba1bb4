// Package addrmap provides Map, the open-addressed hash table from an
// address to a value that sits on the simulator's per-access paths: the
// memory hierarchy's in-flight fill tracker (MSHR) and the load/store
// queue's store-forwarding index.
//
// A Map replaces a Go map on those paths: the common empty case is one
// length check, lookups are a linear probe over flat arrays, inserts and
// deletes allocate nothing once the table reaches its working size, and
// Clear keeps the backing arrays. Keys are hashed by Fibonacci hashing;
// deletion shifts the following probe chain back, so chains stay dense
// without tombstones.
//
// Keys are stored biased by +1 so a zero slot means empty; key
// ^uint64(0) is therefore unrepresentable, which no line or effective
// address reaches (it would need a one-byte line at the very top of the
// address space).
package addrmap

import "math/bits"

// minSlots is the smallest table; the zero value grows to it on the
// first Put.
const minSlots = 64

// Map maps uint64 keys to values of type V. The zero value is an empty
// map ready to use. It is not safe for concurrent use, and a copy
// shares the original's arrays, so a Map must not be copied once used.
type Map[V any] struct {
	keys  []uint64 // key+1; 0 marks an empty slot
	vals  []V
	n     int
	mask  uint64
	shift uint // 64 - log2(len(keys)), for Fibonacci hashing
}

// New returns an empty map pre-sized to the smallest power of two that
// is at least max(n, 64) slots, so a table whose working size is known
// skips the rehashes of growing from the minimum.
func New[V any](n int) Map[V] {
	size := minSlots
	for size < n {
		size *= 2
	}
	var m Map[V]
	m.alloc(size)
	return m
}

func (m *Map[V]) alloc(size int) {
	m.keys = make([]uint64, size)
	m.vals = make([]V, size)
	m.mask = uint64(size - 1)
	m.shift = 64 - uint(bits.TrailingZeros(uint(size)))
}

func (m *Map[V]) slot(key uint64) uint64 {
	return (key * 0x9e3779b97f4a7c15) >> m.shift
}

// Len returns the number of keys present.
func (m *Map[V]) Len() int { return m.n }

// Get returns the value stored under k and whether k is present.
func (m *Map[V]) Get(k uint64) (V, bool) {
	if m.n == 0 {
		var zero V
		return zero, false
	}
	key := k + 1
	for i := m.slot(key); ; i = (i + 1) & m.mask {
		switch m.keys[i] {
		case key:
			return m.vals[i], true
		case 0:
			var zero V
			return zero, false
		}
	}
}

// Put stores v under k, inserting or replacing.
func (m *Map[V]) Put(k uint64, v V) {
	if 4*(m.n+1) > 3*len(m.keys) {
		m.grow()
	}
	key := k + 1
	for i := m.slot(key); ; i = (i + 1) & m.mask {
		switch m.keys[i] {
		case 0:
			m.keys[i] = key
			m.vals[i] = v
			m.n++
			return
		case key:
			m.vals[i] = v
			return
		}
	}
}

// Del removes k (a no-op if absent) by backward-shift deletion.
func (m *Map[V]) Del(k uint64) {
	if m.n == 0 {
		return
	}
	key := k + 1
	i := m.slot(key)
	for m.keys[i] != key {
		if m.keys[i] == 0 {
			return
		}
		i = (i + 1) & m.mask
	}
	m.n--
	for j := i; ; {
		j = (j + 1) & m.mask
		kj := m.keys[j]
		if kj == 0 {
			break
		}
		// kj may slide back into slot i only if i still lies within its
		// probe chain (between its home slot and j, cyclically).
		if (j-m.slot(kj))&m.mask >= (j-i)&m.mask {
			m.keys[i] = kj
			m.vals[i] = m.vals[j]
			i = j
		}
	}
	var zero V
	m.keys[i] = 0
	m.vals[i] = zero
}

// grow rebuilds the table at double capacity (minSlots from empty),
// reinserting the live entries. It runs O(log n) times over a map's
// lifetime; Clear keeps the grown arrays.
func (m *Map[V]) grow() {
	oldKeys, oldVals := m.keys, m.vals
	m.alloc(max(minSlots, 2*len(oldKeys)))
	m.n = 0
	for i, k := range oldKeys {
		if k != 0 {
			m.Put(k-1, oldVals[i])
		}
	}
}

// Clear removes every key, keeping the backing arrays.
func (m *Map[V]) Clear() {
	if m.n != 0 {
		clear(m.keys)
		clear(m.vals)
		m.n = 0
	}
}

// ForEach calls fn for every key and its value, in no particular order.
// fn must not modify the map.
func (m *Map[V]) ForEach(fn func(k uint64, v V)) {
	for i, key := range m.keys {
		if key != 0 {
			fn(key-1, m.vals[i])
		}
	}
}
