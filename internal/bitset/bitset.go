// Package bitset provides a dense fixed-capacity bit set used for the
// rename table's Valid and Future Free vectors; each checkpoint keeps
// the Future Free vector it captured.
package bitset

import "math/bits"

// Set is a fixed-capacity bit set. The zero value of the struct is not
// usable; create Sets with New.
type Set struct {
	words []uint64
	n     int
}

// New returns a Set holding n bits, all clear.
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative size")
	}
	return &Set{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the capacity in bits.
func (s *Set) Len() int { return s.n }

// Get reports whether bit i is set.
func (s *Set) Get(i int) bool {
	return s.words[i>>6]&(1<<uint(i&63)) != 0
}

// Set sets bit i.
func (s *Set) Set(i int) {
	s.words[i>>6] |= 1 << uint(i&63)
}

// Clear clears bit i.
func (s *Set) Clear(i int) {
	s.words[i>>6] &^= 1 << uint(i&63)
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// SetAll sets every bit in the capacity (rollback free-list rebuilds
// start from the full set; a word fill beats n Set calls).
func (s *Set) SetAll() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	if tail := uint(s.n & 63); tail != 0 {
		s.words[len(s.words)-1] = 1<<tail - 1
	}
}

// Reset clears every bit.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// AndNotWith sets s &^= other.
func (s *Set) AndNotWith(other *Set) {
	if s.n != other.n {
		panic("bitset: size mismatch in AndNotWith")
	}
	for i := range s.words {
		s.words[i] &^= other.words[i]
	}
}

// ForEach calls fn for every set bit in ascending order.
func (s *Set) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi<<6 + b)
			w &^= 1 << uint(b)
		}
	}
}
