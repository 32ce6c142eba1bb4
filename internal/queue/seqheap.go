package queue

// seqHeap is the one ordered set of the queue hierarchy: it holds
// (seq, value) items and yields them smallest seq first. The issue
// queues keep their ready entries in one and the SLIQ its woken
// entries.
//
// Items arrive mostly in program order (instructions ready at dispatch,
// a trigger's dependants waking together), so a push whose seq extends
// the in-order lane's tail enqueues there in O(1); the rest go to a
// 4-ary min-heap. front is the smaller of the two heads. Seqs are
// unique, so the order is the strict seq minimum however the items
// split between lane and heap, and neither the split nor the heap's
// arity is visible to simulated state.
//
// There is no remove. An owner decides from its own state whether an
// item is still live and pops dead ones when they reach the front;
// until then a dead item costs its slot and no work.
type seqHeap[V any] struct {
	lane Deque[seqItem[V]] // ascending seq, front to back
	heap []seqItem[V]      // 4-ary min-heap by seq
}

// seqItem carries a copy of its seq so that ordering walks the flat
// arrays instead of dereferencing every candidate.
type seqItem[V any] struct {
	seq uint64
	v   V
}

// push adds an item.
func (h *seqHeap[V]) push(seq uint64, v V) {
	it := seqItem[V]{seq: seq, v: v}
	if h.lane.Len() == 0 || seq > h.lane.Back().seq {
		h.lane.PushBack(it)
		return
	}
	h.heap = append(h.heap, it)
	hp := h.heap
	for i := len(hp) - 1; i > 0; {
		parent := (i - 1) / 4
		if hp[parent].seq <= hp[i].seq {
			break
		}
		hp[parent], hp[i] = hp[i], hp[parent]
		i = parent
	}
}

// laneFirst reports whether the lane holds the smallest item; it is
// false when the lane is empty.
func (h *seqHeap[V]) laneFirst() bool {
	return h.lane.Len() > 0 && (len(h.heap) == 0 || h.lane.Front().seq < h.heap[0].seq)
}

// front returns the item with the smallest seq; ok is false when the
// set is empty.
func (h *seqHeap[V]) front() (it seqItem[V], ok bool) {
	switch {
	case h.laneFirst():
		return h.lane.Front(), true
	case len(h.heap) > 0:
		return h.heap[0], true
	}
	return it, false
}

// pop removes the front item. The set must not be empty.
func (h *seqHeap[V]) pop() {
	if h.laneFirst() {
		h.lane.PopFront()
		return
	}
	hp := h.heap
	last := len(hp) - 1
	hp[0] = hp[last]
	hp[last] = seqItem[V]{}
	hp = hp[:last]
	h.heap = hp
	for i := 0; ; {
		first := 4*i + 1
		if first >= last {
			break
		}
		least := first
		for c := first + 1; c < min(first+4, last); c++ {
			if hp[c].seq < hp[least].seq {
				least = c
			}
		}
		if hp[i].seq <= hp[least].seq {
			break
		}
		hp[i], hp[least] = hp[least], hp[i]
		i = least
	}
}

// each calls fn on every item, in no particular order.
func (h *seqHeap[V]) each(fn func(v V)) {
	for i := 0; i < h.lane.Len(); i++ {
		fn(h.lane.At(i).v)
	}
	for _, it := range h.heap {
		fn(it.v)
	}
}
