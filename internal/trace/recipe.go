package trace

import (
	"fmt"

	"repro/internal/isa/programs"
)

// Kernel names accepted by Recipe. Each maps to one public generator.
const (
	KernelStream       = "stream"
	KernelStrided      = "strided"
	KernelStencil      = "stencil"
	KernelReduction    = "reduction"
	KernelBlocked      = "blocked"
	KernelPointerChase = "pointerchase"
	KernelFPMix        = "fpmix"

	// KernelProgram selects a real RV32 program workload instead of a
	// synthetic generator: the recipe names a registered program
	// (internal/isa/programs) plus its input size, and materialisation
	// functionally executes it into the dynamic stream.
	KernelProgram = "program"
)

// Recipe is the declarative identity of a generated trace: enough
// information to regenerate it bit-for-bit anywhere. It is the workload
// half of a simulation fingerprint (sim.Fingerprint) and the wire form
// a service client ships instead of the materialised instruction
// stream — a few dozen bytes standing in for megabytes of trace.
//
// Length contract: synthetic kernels generate exactly N instructions,
// and callers size N from a committed-instruction budget via LenFor —
// never by hand. Program recipes (KernelProgram) carry no N at all:
// their dynamic length is whatever the program executes before halting,
// a property of the program and its input, not a budget guess.
type Recipe struct {
	// Kernel names the generator (Kernel* constants).
	Kernel string `json:"kernel"`
	// N is the dynamic instruction count to generate (synthetic kernels
	// only; must be zero for KernelProgram, whose length is derived by
	// executing the program).
	N int `json:"n,omitempty"`
	// Seed parameterises KernelFPMix and the program kernels' data
	// layouts; other kernels ignore it.
	Seed uint64 `json:"seed,omitempty"`
	// Stride is the element stride of KernelStrided; other kernels
	// ignore it.
	Stride int `json:"stride,omitempty"`
	// Program names the registered program of a KernelProgram recipe.
	Program string `json:"program,omitempty"`
	// Input is the program's input size (KernelProgram only).
	Input int `json:"input,omitempty"`
}

// LenFor returns the trace length to generate for a run with the given
// committed-instruction budget: the budget plus 20% headroom (rollback
// replays, wrong-path fetch) plus a constant tail, so the run never
// exhausts its trace. Every surface that sizes a synthetic workload
// from a budget must use this one function: the length goes into trace
// recipes and therefore into cache fingerprints, so a drifted copy
// would key the same logical point differently and silently break
// cross-client cache sharing. The 20%+4096 headroom is part of the
// recipe contract, not folklore individual generators may adjust.
//
// Program recipes never use LenFor: a program's dynamic length comes
// from executing it (see Recipe.N).
func LenFor(insts uint64) int {
	return int(insts) + int(insts)/5 + 4096
}

// MaxRecipeInsts bounds Recipe.N. Recipes arrive over the wire and
// materialisation allocates the whole stream up front, so an absurd
// count must be rejected before it reaches the allocator. The bound is
// ~25x the paper's figure scale (364k instructions per point).
const MaxRecipeInsts = 8 << 20

// MaxStreamInsts bounds the dynamic length of a streamed (sampled) run.
// Streaming never materialises the whole trace, so the bound only caps
// runaway requests, not memory — hence ~128x the materialisation cap.
const MaxStreamInsts = 1 << 30

// Validate reports unknown kernels and nonsensical parameters. It also
// rejects parameters the kernel ignores (a seed on "stream", a stride
// on "fpmix"): two recipes that generate identical traces must render
// identical canonical strings, or equal simulations would get distinct
// fingerprints and defeat the content-addressed cache.
func (r Recipe) Validate() error { return r.validate(MaxRecipeInsts) }

// ValidateStreamed is Validate with the N bound lifted to
// MaxStreamInsts: streamed consumers (sampled runs) hold only a window
// in memory, so the materialisation cap does not apply.
func (r Recipe) ValidateStreamed() error { return r.validate(MaxStreamInsts) }

func (r Recipe) validate(maxN int) error {
	if r.Kernel == KernelProgram {
		return r.validateProgram()
	}
	if r.Program != "" || r.Input != 0 {
		return fmt.Errorf("trace: recipe %s: program parameters on a synthetic kernel", r.Kernel)
	}
	if r.N < 1 || r.N > maxN {
		return fmt.Errorf("trace: recipe %s: instruction count %d outside [1,%d]",
			r.Kernel, r.N, maxN)
	}
	switch r.Kernel {
	case KernelStrided:
		if r.Stride < 1 {
			return fmt.Errorf("trace: recipe %s: stride %d < 1", r.Kernel, r.Stride)
		}
	case KernelStream, KernelStencil, KernelReduction, KernelBlocked,
		KernelPointerChase, KernelFPMix:
		if r.Stride != 0 {
			return fmt.Errorf("trace: recipe %s: stride %d on a kernel that ignores it", r.Kernel, r.Stride)
		}
	default:
		return fmt.Errorf("trace: recipe: unknown kernel %q", r.Kernel)
	}
	if r.Seed != 0 && r.Kernel != KernelFPMix {
		return fmt.Errorf("trace: recipe %s: seed %d on a kernel that ignores it", r.Kernel, r.Seed)
	}
	return nil
}

// validateProgram checks a KernelProgram recipe against the program
// registry. N must be zero: program lengths are derived by execution,
// not declared (see the Recipe length contract).
func (r Recipe) validateProgram() error {
	spec, ok := programs.Lookup(r.Program)
	if !ok {
		return fmt.Errorf("trace: recipe: unknown program %q (have %v)", r.Program, programs.Names())
	}
	if r.N != 0 {
		return fmt.Errorf("trace: recipe program/%s: N %d set; program lengths are derived from execution", r.Program, r.N)
	}
	if r.Stride != 0 {
		return fmt.Errorf("trace: recipe program/%s: stride %d on a program recipe", r.Program, r.Stride)
	}
	if r.Input < 1 || r.Input > spec.MaxInput {
		return fmt.Errorf("trace: recipe program/%s: input %d outside [1,%d]", r.Program, r.Input, spec.MaxInput)
	}
	return nil
}

// String renders the canonical form used inside fingerprints. Every
// field is always present so the encoding cannot drift with omission
// rules; changing this string invalidates every content-addressed
// cache entry, which is exactly the intent.
//
// Program recipes render a distinct form no synthetic recipe can
// produce ("program" is not a synthetic kernel name), so adding the
// program extension shifted no existing fingerprint — the zero-drift
// property sim.FingerprintVersion's history relies on.
func (r Recipe) String() string {
	if r.Kernel == KernelProgram {
		return fmt.Sprintf("%s/%s/input=%d/seed=%d", r.Kernel, r.Program, r.Input, r.Seed)
	}
	return fmt.Sprintf("%s/n=%d/seed=%d/stride=%d", r.Kernel, r.N, r.Seed, r.Stride)
}

// Materialise regenerates the trace the recipe describes by draining
// its stream (OpenStream): the first N instructions of a synthetic
// kernel, or a program's whole run, which must halt within
// MaxRecipeInsts. Generation is deterministic — two Materialise calls of
// equal recipes, on any host, produce instruction-identical traces.
func (r Recipe) Materialise() (*Trace, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	st, err := r.OpenStream()
	if err != nil {
		return nil, err
	}
	if r.Kernel != KernelProgram {
		t, _ := st.drain(r.N, r.N) // synthetic streams never fail
		if r.Kernel == KernelStrided {
			t.name = "stream-strided" // the materialised name predates the kernel's
		}
		return t.withRecipe(r), nil
	}
	t, err := st.drain(MaxRecipeInsts, 0)
	if err != nil {
		return nil, fmt.Errorf("trace: recipe %s: %w", r, err)
	}
	if t.Len() >= MaxRecipeInsts {
		return nil, fmt.Errorf("trace: recipe %s: %q exceeds %d dynamic instructions without halting", r, r.Program, MaxRecipeInsts)
	}
	return t.withRecipe(r), nil
}

// WorkloadName returns the human-facing workload label: the program
// name for program recipes, the kernel name otherwise.
func (r Recipe) WorkloadName() string {
	if r.Kernel == KernelProgram {
		return r.Program
	}
	return r.Kernel
}

// Recipe returns the trace's generation recipe. ok is false for traces
// without a declarative identity (custom Mix weights); such traces run
// fine locally but cannot be fingerprinted or shipped to a service.
func (t *Trace) Recipe() (Recipe, bool) {
	return t.recipe, t.hasRecipe
}

// StreamOnly returns an empty trace carrying just the recipe: the one
// handle for callers that only need the workload's identity — a client
// shipping specs to a remote service, or a sampled point, which opens
// the recipe's stream itself — without paying materialisation. It is
// validated under the streamed rules, since a sampled point's synthetic
// N may exceed the materialisation cap (only a window ever exists in
// memory). A full-detail run cannot simulate it directly (Len is 0; the
// core fails immediately); Materialise the recipe for that.
func StreamOnly(r Recipe) (*Trace, error) {
	if err := r.ValidateStreamed(); err != nil {
		return nil, err
	}
	return (&Trace{name: r.WorkloadName()}).withRecipe(r), nil
}

// withRecipe records the generation recipe on a freshly built trace.
func (t *Trace) withRecipe(r Recipe) *Trace {
	t.recipe = r
	t.hasRecipe = true
	return t
}
