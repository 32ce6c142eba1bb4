// Package trace generates the deterministic workloads the simulator
// runs: synthetic kernels that stand in for the paper's SPEC2000fp
// benchmarks (README, "Workloads", describes the substitution) and real
// RV32 programs. A Recipe names a workload. OpenStream produces its
// dynamic instruction stream lazily (InstStream), and Materialise drains
// that stream into a Trace, whose random access by position makes
// checkpoint rollback replay trivial and exact; StreamOnly is the
// recipe-only handle for points that never need the whole trace. Each
// workload has one generator: a kernel is constructed only where its
// stream is opened (synthRound, mixRound), and the public generators
// (Stream, FPMix, ...) are one-line wrappers over recipes.
//
// Kernels model the behaviours the paper's mechanisms react to:
//
//   - Stream: unit-stride FP triad over arrays far larger than L2 — the
//     memory-latency-wall workload that motivates kilo-instruction
//     windows.
//   - Stencil: neighbouring loads with heavy line reuse — mostly cache
//     hits with periodic misses.
//   - Reduction: a serial FP accumulation chain — ILP-limited.
//   - Blocked: cache-resident matrix-vector product — high IPC.
//   - PointerChase: serial dependent misses (the paper's integer
//     "pointer chasing" contrast).
//   - FPMix: a weighted interleave of the FP kernels approximating the
//     SPEC2000fp average the paper reports.
package trace

import (
	"fmt"

	"repro/internal/isa"
)

// Trace is an immutable dynamic instruction stream.
type Trace struct {
	name  string
	insts []isa.Inst

	// recipe, when hasRecipe, is the declarative generation identity
	// (see Recipe): what a service ships and what fingerprints hash
	// instead of the materialised stream.
	recipe    Recipe
	hasRecipe bool

	// code is the static program image of a program-backed trace
	// (KernelProgram recipes); nil for synthetic kernels. See Code.
	code StaticCode
}

// StaticCode is the static-code view of a program-backed trace: the
// program's text mapped instruction by instruction onto pipeline
// operation classes. The core's wrong-path model fetches from it past
// an unresolved mispredicted branch, so wrong paths run the real
// instructions at the mispredicted target instead of a synthetic mix.
// Implementations are immutable and shared read-only across CPUs.
type StaticCode interface {
	// Len returns the number of static instructions.
	Len() int
	// IndexOf returns the static index of pc, if it lies in the text.
	IndexOf(pc uint64) (int, bool)
	// At returns the static instruction at index i.
	At(i int) isa.Inst
}

// Code returns the static program image, or nil for synthetic traces.
func (t *Trace) Code() StaticCode { return t.code }

// Name returns the workload name.
func (t *Trace) Name() string { return t.name }

// Len returns the dynamic instruction count.
func (t *Trace) Len() int64 { return int64(len(t.insts)) }

// At returns the instruction at position pos. The simulator's fetch
// stage calls this; rollback is just re-reading from an older position.
func (t *Trace) At(pos int64) isa.Inst {
	return t.insts[pos]
}

// Validate checks every instruction; generator tests call it.
func (t *Trace) Validate() error {
	for i, in := range t.insts {
		if err := in.Validate(); err != nil {
			return fmt.Errorf("trace %s @%d: %w", t.name, i, err)
		}
	}
	return nil
}

// OpCounts returns a histogram of operation classes.
func (t *Trace) OpCounts() [isa.NumOps]int64 {
	var c [isa.NumOps]int64
	for _, in := range t.insts {
		c[in.Op]++
	}
	return c
}

// builder accumulates the instructions a kernel iteration emits.
type builder struct {
	insts []isa.Inst
}

func (b *builder) emit(in isa.Inst) {
	b.insts = append(b.insts, in)
}

// regWindow hands a kernel instance a disjoint slice of the logical
// register space so interleaved kernels never alias each other's
// dependence chains.
type regWindow struct {
	intBase, intN int
	fpBase, fpN   int
}

func (w regWindow) r(i int) isa.Reg {
	if i < 0 || i >= w.intN {
		panic(fmt.Sprintf("trace: int register window index %d out of [0,%d)", i, w.intN))
	}
	return isa.IntReg(w.intBase + i)
}

func (w regWindow) f(i int) isa.Reg {
	if i < 0 || i >= w.fpN {
		panic(fmt.Sprintf("trace: fp register window index %d out of [0,%d)", i, w.fpN))
	}
	return isa.FPReg(w.fpBase + i)
}

// prng is a splitmix64 generator: deterministic, seedable, stdlib-free.
type prng struct{ state uint64 }

func newPRNG(seed uint64) *prng {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &prng{state: seed}
}

func (p *prng) next() uint64 {
	p.state += 0x9e3779b97f4a7c15
	z := p.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (p *prng) intn(n int) int {
	if n <= 0 {
		panic("trace: intn of non-positive bound")
	}
	return int(p.next() % uint64(n))
}

// float returns a value in [0, 1).
func (p *prng) float() float64 {
	return float64(p.next()>>11) / float64(1<<53)
}
