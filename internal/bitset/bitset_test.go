package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasicOps(t *testing.T) {
	s := New(130)
	if s.Len() != 130 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Count() != 0 {
		t.Fatal("new set must be empty")
	}
	s.Set(0)
	s.Set(64)
	s.Set(129)
	if s.Count() != 3 {
		t.Fatalf("Count = %d", s.Count())
	}
	for _, i := range []int{0, 64, 129} {
		if !s.Get(i) {
			t.Errorf("bit %d should be set", i)
		}
	}
	if s.Get(1) || s.Get(63) || s.Get(128) {
		t.Error("unexpected bits set")
	}
	s.Clear(64)
	if s.Get(64) || s.Count() != 2 {
		t.Error("Clear failed")
	}
	s.Reset()
	if s.Count() != 0 || s.Get(0) || s.Get(129) {
		t.Error("Reset left bits set")
	}
}

func TestSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AndNotWith: expected panic on size mismatch")
		}
	}()
	New(64).AndNotWith(New(65))
}

func TestOrAndNot(t *testing.T) {
	a, b := New(128), New(128)
	a.Set(1)
	a.Set(100)
	b.Set(100)
	b.Set(101)
	a.AndNotWith(b)
	if !a.Get(1) || a.Get(100) || a.Get(101) || a.Count() != 1 {
		t.Error("andnot result wrong")
	}
	if b.Count() != 2 {
		t.Error("andnot must not modify its argument")
	}
}

func TestForEach(t *testing.T) {
	s := New(200)
	want := []int{3, 64, 65, 199}
	for _, i := range want {
		s.Set(i)
	}
	var got []int
	s.ForEach(func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach order: %v, want ascending %v", got, want)
		}
	}
}

// TestQuickModel checks the bitset against a map-based model under
// random operation sequences.
func TestQuickModel(t *testing.T) {
	f := func(ops []uint16, size uint8) bool {
		n := int(size)%256 + 1
		s := New(n)
		model := map[int]bool{}
		for _, op := range ops {
			i := int(op>>2) % n
			switch op & 3 {
			case 0:
				s.Set(i)
				model[i] = true
			case 1:
				s.Clear(i)
				delete(model, i)
			case 2:
				if s.Get(i) != model[i] {
					return false
				}
			case 3:
				if s.Count() != len(model) {
					return false
				}
			}
		}
		count := 0
		s.ForEach(func(i int) {
			if !model[i] {
				count = -1 << 30
			}
			count++
		})
		return count == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// TestSetAll covers the word-fill fast path, including the partial tail
// word (Count would see a phantom bit beyond Len).
func TestSetAll(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 130, 4096} {
		s := New(n)
		s.SetAll()
		if got := s.Count(); got != n {
			t.Errorf("n=%d: SetAll count = %d", n, got)
		}
		if !s.Get(0) || !s.Get(n-1) {
			t.Errorf("n=%d: SetAll left an end bit clear", n)
		}
		s.Clear(n - 1)
		if got := s.Count(); got != n-1 || s.Get(n-1) {
			t.Errorf("n=%d: count after Clear = %d", n, got)
		}
	}
}
