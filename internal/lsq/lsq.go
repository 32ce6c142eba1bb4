// Package lsq models the load/store queue: occupancy of in-flight
// memory operations, store-to-load forwarding, and draining of
// committed stores to the memory hierarchy. Program order lives in the
// core's in-flight window: its commit walk removes committed entries
// oldest first, so stores reach memory in order, and its squash walk
// removes squashed ones youngest first.
//
// Following the paper, the LSQ is treated as a pseudo-perfect resource
// (4096 entries in Table 1) except that its occupancy rules matter: in
// checkpoint mode, entries are held until the owning checkpoint commits,
// which is why the paper bounds stores per checkpoint (64) to avoid
// deadlock.
//
// Disambiguation is indexed: resident stores chain per effective
// address (youngest first, intrusively through the entries), and an
// addrmap.Map from address to the chain's head makes LookupForward one
// table probe plus a short chain walk instead of the former backward
// scan of the whole queue — the scan was the single hottest path in the
// simulator at kilo-instruction windows. Entries recycle through an
// internal free list; steady-state inserts allocate nothing.
package lsq

import (
	"fmt"

	"repro/internal/addrmap"
	"repro/internal/isa"
)

// Kind distinguishes queue entries.
type Kind uint8

// Entry kinds.
const (
	KindLoad Kind = iota
	KindStore
)

// Entry is one memory operation in the queue. Entries are owned by the
// LSQ and recycled after removal: the pipeline must drop its handle when
// it retires or squashes the instruction and must not dereference it
// afterwards.
type Entry struct {
	Seq  uint64
	Kind Kind
	Addr uint64
	// Executed marks address (and data, for stores) availability.
	Executed bool
	// waiters are loads blocked on this store's data (forwarding).
	waiters []func(storeSeq uint64)
	// olderSame chains stores to the same address, newest first (the
	// forwarding index; intrusive so indexing allocates nothing).
	olderSame *Entry
}

// Stats counts queue activity.
type Stats struct {
	Loads         uint64
	Stores        uint64
	Forwards      uint64 // loads satisfied by an older store
	ForwardStalls uint64 // loads that had to wait for store data
	StoresDrained uint64
	FullStalls    uint64
}

// LSQ is the load/store queue.
type LSQ struct {
	capacity int
	// n counts the resident entries; next is the smallest seq Insert
	// accepts, one past the last inserted.
	n    int
	next uint64
	// stores maps an effective address to its youngest resident store;
	// older stores to the same address chain behind it via olderSame.
	stores addrmap.Map[*Entry]
	free   []*Entry
	stats  Stats
}

// New builds a load/store queue with the given capacity.
func New(capacity int) *LSQ {
	if capacity < 1 {
		panic(fmt.Sprintf("lsq: capacity %d < 1", capacity))
	}
	return &LSQ{capacity: capacity}
}

// Cap returns the capacity.
func (q *LSQ) Cap() int { return q.capacity }

// Len returns the number of resident entries.
func (q *LSQ) Len() int { return q.n }

// Full reports whether the queue is at capacity.
func (q *LSQ) Full() bool { return q.Len() >= q.capacity }

// Insert allocates an entry at dispatch. Entries must be inserted in
// increasing sequence order. Returns nil when the queue is full.
func (q *LSQ) Insert(seq uint64, op isa.Op, addr uint64) *Entry {
	if q.Full() {
		q.stats.FullStalls++
		return nil
	}
	if seq < q.next {
		panic(fmt.Sprintf("lsq: out-of-order insert seq %d after %d", seq, q.next-1))
	}
	var k Kind
	switch op {
	case isa.Load:
		k = KindLoad
		q.stats.Loads++
	case isa.Store:
		k = KindStore
		q.stats.Stores++
	default:
		panic(fmt.Sprintf("lsq: non-memory op %v", op))
	}
	var e *Entry
	if n := len(q.free); n > 0 {
		e = q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
	} else {
		e = new(Entry)
	}
	e.Seq, e.Kind, e.Addr, e.Executed = seq, k, addr, false
	q.n++
	q.next = seq + 1
	if k == KindStore {
		// Inserts arrive in seq order, so the new store is the
		// youngest at its address: it heads the chain.
		e.olderSame, _ = q.stores.Get(addr)
		q.stores.Put(addr, e)
	}
	return e
}

// release takes a resident entry out of the queue and returns it to the
// free list. The entry's waiter backing array is kept for reuse.
func (q *LSQ) release(e *Entry) {
	if q.n == 0 {
		panic(fmt.Sprintf("lsq: removing seq %d from an empty queue", e.Seq))
	}
	q.n--
	for i := range e.waiters {
		e.waiters[i] = nil
	}
	e.waiters = e.waiters[:0]
	e.olderSame = nil
	q.free = append(q.free, e)
}

// dropStore unlinks a store from the forwarding index. Chains are short
// (stores resident at one address), so the walk is cheap.
func (q *LSQ) dropStore(e *Entry) {
	head, _ := q.stores.Get(e.Addr)
	if head == e {
		if e.olderSame == nil {
			q.stores.Del(e.Addr)
		} else {
			q.stores.Put(e.Addr, e.olderSame)
		}
		return
	}
	for x := head; x != nil; x = x.olderSame {
		if x.olderSame == e {
			x.olderSame = e.olderSame
			return
		}
	}
	panic(fmt.Sprintf("lsq: store seq %d missing from the forwarding index", e.Seq))
}

// MarkExecuted records that the entry's address (and data for stores)
// has been computed. For stores this releases any loads waiting to
// forward from it.
func (q *LSQ) MarkExecuted(e *Entry) {
	e.Executed = true
	if e.Kind == KindStore {
		for i, w := range e.waiters {
			e.waiters[i] = nil
			w(e.Seq)
		}
		e.waiters = e.waiters[:0]
	}
}

// ForwardResult describes the disambiguation outcome for a load.
type ForwardResult int

// Forwarding outcomes.
const (
	// NoConflict: no older store to the same address; access memory.
	NoConflict ForwardResult = iota
	// ForwardReady: an older executed store matches; forward its data.
	ForwardReady
	// ForwardWait: an older store matches but its data is not ready;
	// the load must wait (register a callback via AddWaiter).
	ForwardWait
)

// LookupForward finds the youngest store older than loadSeq with a
// matching address. On ForwardWait it returns the blocking store so the
// caller can register a wake callback with AddWaiter. Unresolved store
// addresses are compared against the architectural address the generator
// provided, per the paper's pseudo-perfect disambiguation.
func (q *LSQ) LookupForward(loadSeq uint64, addr uint64) (ForwardResult, *Entry) {
	// The chain is youngest-first: the first store older than the load
	// is the youngest matching one.
	e, _ := q.stores.Get(addr)
	for e != nil && e.Seq >= loadSeq {
		e = e.olderSame
	}
	if e == nil {
		return NoConflict, nil
	}
	if !e.Executed {
		q.stats.ForwardStalls++
		return ForwardWait, e
	}
	q.stats.Forwards++
	return ForwardReady, nil
}

// AddWaiter registers a callback invoked when the (unexecuted) store's
// data becomes available; callers obtain store from a ForwardWait
// lookup. Waiters of squashed stores are dropped without being invoked.
func (q *LSQ) AddWaiter(store *Entry, onReady func(storeSeq uint64)) {
	if store.Executed {
		panic(fmt.Sprintf("lsq: waiter on executed store seq %d", store.Seq))
	}
	store.waiters = append(store.waiters, onReady)
}

// Remove takes a committed entry out of the queue; a store writes its
// data through write as it leaves. The core removes committed entries
// oldest first, so stores reach memory in program order.
func (q *LSQ) Remove(e *Entry, write func(addr uint64)) {
	if e.Kind == KindStore {
		if !e.Executed {
			panic(fmt.Sprintf("lsq: committing unexecuted store seq %d", e.Seq))
		}
		write(e.Addr)
		q.dropStore(e)
		q.stats.StoresDrained++
	}
	q.release(e)
}

// Squash takes a squashed entry out of the queue. Pending forward
// waiters of a squashed store are dropped unfired (their loads are
// younger than the store and therefore squashed too).
func (q *LSQ) Squash(e *Entry) {
	if e.Kind == KindStore {
		q.dropStore(e)
	}
	q.release(e)
}

// Stats returns a copy of the counters.
func (q *LSQ) Stats() Stats { return q.stats }

// CheckInvariants validates the forwarding index (each chain holds its
// own address's stores, youngest first) and the occupancy, for tests.
func (q *LSQ) CheckInvariants() error {
	stores := 0
	var err error
	q.stores.ForEach(func(addr uint64, head *Entry) {
		for e, prev := head, ^uint64(0); e != nil && err == nil; prev, e = e.Seq, e.olderSame {
			stores++
			switch {
			case e.Addr != addr:
				err = fmt.Errorf("lsq: store seq %d indexed under %#x, has addr %#x", e.Seq, addr, e.Addr)
			case e.Seq >= prev:
				err = fmt.Errorf("lsq: store chain for %#x out of order", addr)
			}
		}
	})
	switch {
	case err != nil:
		return err
	case q.n > q.capacity:
		return fmt.Errorf("lsq: %d entries exceed capacity %d", q.n, q.capacity)
	case stores > q.n:
		return fmt.Errorf("lsq: forwarding index has %d stores, queue holds %d entries", stores, q.n)
	}
	return nil
}
