package trace

import (
	"testing"

	"repro/internal/isa/programs"
)

// streamTestRecipes is the equivalence corpus: every synthetic kernel
// plus every registered program, at sizes small enough to materialise
// quickly but large enough to cross many emission rounds.
func streamTestRecipes(t *testing.T) []Recipe {
	t.Helper()
	const n = 50_000
	rs := []Recipe{
		{Kernel: KernelStream, N: n},
		{Kernel: KernelStrided, N: n, Stride: 8},
		{Kernel: KernelStencil, N: n},
		{Kernel: KernelReduction, N: n},
		{Kernel: KernelBlocked, N: n},
		{Kernel: KernelPointerChase, N: n},
		{Kernel: KernelFPMix, N: n, Seed: 42},
	}
	for _, name := range programs.Names() {
		spec, ok := programs.Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) failed", name)
		}
		rs = append(rs, Recipe{
			Kernel:  KernelProgram,
			Program: name,
			Input:   spec.InputFor(20_000),
			Seed:    7,
		})
	}
	return rs
}

// TestStreamedMatchesMaterialised enforces the stream prefix contract:
// for every recipe, the segment stream's elements equal the one-shot
// Materialise()'s element-for-element — under adversarially odd chunk
// sizes, so buffer compaction and round boundaries are both crossed.
// Program streams must additionally end at exactly the materialised
// length (the program halts at the same instruction either way).
func TestStreamedMatchesMaterialised(t *testing.T) {
	chunks := []int{1, 7, 113, 997, 4096, 10_000}
	for _, r := range streamTestRecipes(t) {
		r := r
		t.Run(r.String(), func(t *testing.T) {
			want, err := r.Materialise()
			if err != nil {
				t.Fatalf("Materialise: %v", err)
			}
			st, err := r.OpenStream()
			if err != nil {
				t.Fatalf("OpenStream: %v", err)
			}
			var pos int64
			ci := 0
			for pos < want.Len() {
				n := chunks[ci%len(chunks)]
				ci++
				if rem := want.Len() - pos; int64(n) > rem {
					n = int(rem)
				}
				got, err := st.Peek(n)
				if err != nil {
					t.Fatalf("Peek(%d) at %d: %v", n, pos, err)
				}
				if len(got) != n {
					t.Fatalf("Peek(%d) at %d returned %d insts (stream ended early)", n, pos, len(got))
				}
				for i := range got {
					if got[i] != want.At(pos+int64(i)) {
						t.Fatalf("stream diverges at %d: got %+v want %+v",
							pos+int64(i), got[i], want.At(pos+int64(i)))
					}
				}
				st.Skip(n)
				pos += int64(n)
			}
			if st.Pos() != want.Len() {
				t.Fatalf("Pos() = %d, want %d", st.Pos(), want.Len())
			}
			if r.Kernel == KernelProgram {
				// The program halted during materialisation, so the stream
				// must be exhausted at the same point.
				tail, err := st.Peek(1)
				if err != nil {
					t.Fatalf("Peek past end: %v", err)
				}
				if len(tail) != 0 {
					t.Fatalf("program stream continues past materialised length %d", want.Len())
				}
			}
		})
	}
}

// TestStreamWindowWarmFootprint checks the window half of the stream's
// fidelity: a Window over the whole stream holds the materialised
// trace's instructions — the footprint full-detail and sampled runs both
// warm their caches from (the cache-state check is core's
// TestSampledWarmMatchesDonor) — and carries its static code.
func TestStreamWindowWarmFootprint(t *testing.T) {
	for _, r := range streamTestRecipes(t) {
		r := r
		t.Run(r.String(), func(t *testing.T) {
			want, err := r.Materialise()
			if err != nil {
				t.Fatalf("Materialise: %v", err)
			}
			st, err := r.OpenStream()
			if err != nil {
				t.Fatalf("OpenStream: %v", err)
			}
			win, err := st.Window(int(want.Len()))
			if err != nil {
				t.Fatalf("Window: %v", err)
			}
			if win.Len() != want.Len() {
				t.Fatalf("window length %d, want %d", win.Len(), want.Len())
			}
			if (win.Code() == nil) != (want.Code() == nil) {
				t.Fatalf("window code presence %v, want %v", win.Code() != nil, want.Code() != nil)
			}
			for i := range win.insts {
				if win.insts[i] != want.insts[i] {
					t.Fatalf("window diverges at %d: got %+v want %+v", i, win.insts[i], want.insts[i])
				}
			}
		})
	}
}

// TestStreamOnlyLiftsCap checks the streamed validation path accepts
// synthetic sizes the materialisation cap rejects — the point of
// streaming — while still bounding runaway requests.
func TestStreamOnlyLiftsCap(t *testing.T) {
	big := Recipe{Kernel: KernelStream, N: MaxRecipeInsts + 1}
	if _, err := big.Materialise(); err == nil {
		t.Fatal("Materialise accepted N beyond MaxRecipeInsts")
	}
	if _, err := StreamOnly(big); err != nil {
		t.Fatalf("StreamOnly rejected streamable N: %v", err)
	}
	absurd := Recipe{Kernel: KernelStream, N: MaxStreamInsts + 1}
	if _, err := StreamOnly(absurd); err == nil {
		t.Fatal("StreamOnly accepted N beyond MaxStreamInsts")
	}
}
