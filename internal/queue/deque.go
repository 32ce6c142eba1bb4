package queue

// Deque is a growable ring-buffer double-ended queue: the one FIFO for
// the pipeline's in-flight windows (ROB, pseudo-ROB, checkpoint
// in-flight list, oracle window, LSQ). Dispatch pushes at the back,
// retirement pops the front, and a squash pops the back.
//
// The zero value is an empty, usable deque. PushBack doubles the buffer
// when it is full, so unbounded windows grow from nothing; bounded
// windows pre-size with NewDeque and keep their own capacity check,
// which keeps them from ever growing.
type Deque[T any] struct {
	buf        []T
	head, size int
}

// NewDeque returns an empty deque whose buffer holds n elements before
// it first grows.
func NewDeque[T any](n int) Deque[T] {
	return Deque[T]{buf: make([]T, n)}
}

// Len returns the number of elements.
func (d *Deque[T]) Len() int { return d.size }

// wrap reduces an index in [0, 2*len(buf)) onto the ring; head+offset
// sums never exceed that, so a conditional subtract replaces the
// integer division a % would cost on the per-instruction paths.
func (d *Deque[T]) wrap(i int) int {
	if i >= len(d.buf) {
		i -= len(d.buf)
	}
	return i
}

// PushBack appends v at the back (youngest), doubling the buffer first
// when it is full.
func (d *Deque[T]) PushBack(v T) {
	if d.size == len(d.buf) {
		buf := make([]T, max(2*len(d.buf), 16))
		n := copy(buf, d.buf[d.head:])
		copy(buf[n:], d.buf[:d.head])
		d.buf, d.head = buf, 0
	}
	d.buf[d.wrap(d.head+d.size)] = v
	d.size++
}

// Front returns the front (oldest) element, or the zero value when the
// deque is empty.
func (d *Deque[T]) Front() T {
	if d.size == 0 {
		var zero T
		return zero
	}
	return d.buf[d.head]
}

// Back returns the back (youngest) element, or the zero value when the
// deque is empty.
func (d *Deque[T]) Back() T {
	if d.size == 0 {
		var zero T
		return zero
	}
	return d.buf[d.wrap(d.head+d.size-1)]
}

// PopFront removes and returns the front (oldest) element. It panics
// when the deque is empty.
func (d *Deque[T]) PopFront() T {
	if d.size == 0 {
		panic("queue: PopFront on an empty deque")
	}
	var zero T
	v := d.buf[d.head]
	d.buf[d.head] = zero
	d.head = d.wrap(d.head + 1)
	d.size--
	return v
}

// PopBack removes and returns the back (youngest) element. It panics
// when the deque is empty.
func (d *Deque[T]) PopBack() T {
	if d.size == 0 {
		panic("queue: PopBack on an empty deque")
	}
	var zero T
	i := d.wrap(d.head + d.size - 1)
	v := d.buf[i]
	d.buf[i] = zero
	d.size--
	return v
}

// Clear removes every element, keeping the buffer.
func (d *Deque[T]) Clear() {
	clear(d.buf)
	d.head, d.size = 0, 0
}

// ForEach calls fn on each element from front to back.
func (d *Deque[T]) ForEach(fn func(v T)) {
	for i := 0; i < d.size; i++ {
		fn(d.buf[d.wrap(d.head+i)])
	}
}
