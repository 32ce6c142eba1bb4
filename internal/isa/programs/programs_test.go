package programs_test

import (
	"sort"
	"testing"

	"repro/internal/isa"
	"repro/internal/isa/programs"
	"repro/internal/isa/rv32"
)

// TestEveryProgramBuildsAndHalts is the registry's contract test: for
// every registered program, an InputFor-suggested input builds, executes
// to a halt, and maps to a well-formed dynamic pipeline stream (real
// text-range PCs, data-range effective addresses, resolved branch
// targets) plus a static image covering the whole text.
func TestEveryProgramBuildsAndHalts(t *testing.T) {
	names := programs.Names()
	if len(names) < 4 {
		t.Fatalf("registry too small: %v", names)
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Names() not sorted: %v", names)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			spec, ok := programs.Lookup(name)
			if !ok {
				t.Fatalf("Lookup(%q) missed a listed program", name)
			}
			input := spec.InputFor(30_000)
			if input < 1 || input > spec.MaxInput {
				t.Fatalf("InputFor suggestion %d outside [1, %d]", input, spec.MaxInput)
			}
			p, err := spec.Build(input, 42)
			if err != nil {
				t.Fatal(err)
			}
			st, err := rv32.NewStreamer(p)
			if err != nil {
				t.Fatal(err)
			}
			var stream []isa.Inst
			for !st.Halted() && len(stream) < 4<<20 {
				if stream, err = st.Emit(stream); err != nil {
					t.Fatal(err)
				}
			}
			if !st.Halted() {
				t.Fatalf("no halt within %d instructions", len(stream))
			}
			img := st.Image()
			if len(stream) == 0 {
				t.Fatal("empty dynamic stream")
			}
			if img.Len() != len(p.Text) {
				t.Fatalf("image covers %d words, text has %d", img.Len(), len(p.Text))
			}
			textBase := uint64(rv32.TextBase)
			textEnd := textBase + 4*uint64(len(p.Text))
			var branches, memOps int
			for i, in := range stream {
				if in.PC < textBase || in.PC >= textEnd {
					t.Fatalf("inst %d: pc %#x outside text [%#x, %#x)", i, in.PC, textBase, textEnd)
				}
				switch in.Op {
				case isa.Branch:
					branches++
					if in.Taken && (in.Target < textBase || in.Target >= textEnd) {
						t.Fatalf("inst %d: taken branch targets %#x outside text", i, in.Target)
					}
				case isa.Load, isa.Store:
					memOps++
					if in.Addr < textBase {
						t.Fatalf("inst %d: %v effective address %#x below the address floor", i, in.Op, in.Addr)
					}
				}
			}
			if branches == 0 || memOps == 0 {
				t.Fatalf("stream has %d branches and %d memory ops; every kernel must exercise both", branches, memOps)
			}
			t.Logf("%s(input=%d): %d insts, %d branches, %d mem ops", name, input, len(stream), branches, memOps)
		})
	}

	if _, ok := programs.Lookup("no-such-program"); ok {
		t.Error("Lookup accepted an unregistered name")
	}
}

// TestBuildRejectsOutOfRangeInput pins the input validation every
// program shares.
func TestBuildRejectsOutOfRangeInput(t *testing.T) {
	for _, name := range programs.Names() {
		spec, _ := programs.Lookup(name)
		if _, err := spec.Build(0, 42); err == nil {
			t.Errorf("%s: Build(0) succeeded", name)
		}
		if _, err := spec.Build(spec.MaxInput+1, 42); err == nil {
			t.Errorf("%s: Build(MaxInput+1) succeeded", name)
		}
	}
}

// TestISortSortsMemory checks the flagship kernel architecturally: after
// execution the seeded array at DataBase really is sorted (signed
// ascending — the kernel compares with BGE), so the pipeline stream
// downstream reflects a genuine algorithm, not just plausible-looking
// address traffic.
func TestISortSortsMemory(t *testing.T) {
	spec, _ := programs.Lookup("isort")
	const n = 100
	p, err := spec.Build(n, 7)
	if err != nil {
		t.Fatal(err)
	}
	m, err := rv32.Execute(p, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	prev := int32(-1 << 31)
	for i := 0; i < n; i++ {
		v := int32(m.ReadWord(rv32.DataBase + uint32(4*i)))
		if v < prev {
			t.Fatalf("a[%d]=%#x < a[%d]=%#x: not sorted", i, v, i-1, prev)
		}
		prev = v
	}
}

// TestMemcpyCopies checks memcpy architecturally, including the byte
// tail: dst must equal src for a length that is not word-aligned.
func TestMemcpyCopies(t *testing.T) {
	spec, _ := programs.Lookup("memcpy")
	const n = 259 // 64 words + 3 tail bytes
	p, err := spec.Build(n, 9)
	if err != nil {
		t.Fatal(err)
	}
	m, err := rv32.Execute(p, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	const srcBase, dstBase = 0x100000, 0x200000
	for off := uint32(0); off < n; off += 4 {
		// ReadWord is fine even over the tail: both sides see the same
		// untouched bytes past n.
		if off+4 <= n {
			if s, d := m.ReadWord(srcBase+off), m.ReadWord(dstBase+off); s != d {
				t.Fatalf("dst[%#x]=%#x != src=%#x", off, d, s)
			}
		}
	}
	// The tail bytes, via shifted word reads on the last aligned word.
	last := uint32(n &^ 3)
	s, d := m.ReadWord(srcBase+last), m.ReadWord(dstBase+last)
	mask := uint32(1)<<(8*(n-last)) - 1
	if s&mask != d&mask {
		t.Fatalf("tail bytes differ: src=%#x dst=%#x mask=%#x", s, d, mask)
	}
}

// TestBuildIsDeterministic: the same (input, seed) pair must yield a
// byte-identical program — data layout, init state and text — because
// the trace layer's fingerprint cache assumes recipes are pure.
func TestBuildIsDeterministic(t *testing.T) {
	for _, name := range programs.Names() {
		spec, _ := programs.Lookup(name)
		input := spec.InputFor(20_000)
		p1, err1 := spec.Build(input, 1234)
		p2, err2 := spec.Build(input, 1234)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: %v / %v", name, err1, err2)
		}
		if len(p1.Text) != len(p2.Text) {
			t.Fatalf("%s: text lengths differ", name)
		}
		for i := range p1.Text {
			if p1.Text[i] != p2.Text[i] {
				t.Fatalf("%s: text word %d differs", name, i)
			}
		}
		if len(p1.Data) != len(p2.Data) {
			t.Fatalf("%s: segment counts differ", name)
		}
		for i := range p1.Data {
			if p1.Data[i].Addr != p2.Data[i].Addr || string(p1.Data[i].Data) != string(p2.Data[i].Data) {
				t.Fatalf("%s: segment %d differs", name, i)
			}
		}
		for r, v := range p1.Init {
			if p2.Init[r] != v {
				t.Fatalf("%s: init x%d differs", name, r)
			}
		}
		// A different seed must actually change the data (all kernels are
		// seeded except the fixed-layout parts of dhry's function table).
		p3, err := spec.Build(input, 99)
		if err != nil {
			t.Fatal(err)
		}
		same := true
		for i := range p1.Data {
			if string(p1.Data[i].Data) != string(p3.Data[i].Data) {
				same = false
			}
		}
		if same && name != "dhry" {
			t.Errorf("%s: seed change did not alter the data layout", name)
		}
	}
}
