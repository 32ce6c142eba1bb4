package experiments

import (
	"context"
	"fmt"

	"repro/internal/isa/programs"
	"repro/internal/trace"
)

// The real-program counterparts of the synthetic evaluation: the same
// figure-9 grid and commit-policy ablation, run over RV32 programs
// executed into the pipeline instead of generated recipes. Program
// inputs are sized per program via Spec.InputFor so each dynamic stream
// lands near the per-point instruction budget, keeping the two suites
// comparable.

// ProgramRecipe returns the recipe the experiment suites use for one
// program under a committed-instruction budget.
func ProgramRecipe(name string, insts, seed uint64) (trace.Recipe, error) {
	spec, ok := programs.Lookup(name)
	if !ok {
		return trace.Recipe{}, fmt.Errorf("experiments: unknown program %q (have %v)", name, programs.Names())
	}
	return trace.Recipe{
		Kernel:  trace.KernelProgram,
		Program: name,
		Input:   spec.InputFor(insts),
		Seed:    seed,
	}, nil
}

// buildProgramSuite materialises (or, for remote runners and sampled
// points, identifies) the program suite. The signature mirrors
// buildSuite so both share the Options caching path.
func buildProgramSuite(insts, seed uint64, recipeOnly bool) ([]suiteTrace, error) {
	names := programs.Names()
	out := make([]suiteTrace, len(names))
	for i, name := range names {
		r, err := ProgramRecipe(name, insts, seed)
		if err != nil {
			return nil, err
		}
		tr, err := suiteMember(r, recipeOnly)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", name, err)
		}
		out[i] = suiteTrace{name: name, tr: tr}
	}
	return out, nil
}

// Figure9Programs runs the figure-9 grid (the same checkpoint/baseline
// configurations as Figure9) over the real-program suite. Program
// dynamic lengths are properties of the programs, so points whose
// stream is shorter than the instruction budget simply run the program
// to completion.
func Figure9Programs(ctx context.Context, opt Options) (Figure9Result, error) {
	opt = opt.withDefaults()
	suite, err := opt.programSuite()
	if err != nil {
		return Figure9Result{}, err
	}
	res, err := figure9Over(ctx, opt, suite)
	if err != nil {
		return Figure9Result{}, err
	}
	res.Suite = "program"
	return res, nil
}

// DefaultSampledInsts is the per-point stream budget sampled program
// figures default to: deep enough that sampling pays (dozens of
// windows, a detail fraction around 10%) yet bounded so the full-detail
// reference point in benchmarks stays feasible.
const DefaultSampledInsts = 4_000_000

// Figure9ProgramsSampled is Figure9Programs under SMARTS sampling: the
// same grid over the same programs, but each point fast-forwards
// between detailed windows instead of simulating every instruction.
// With no explicit Sample spec it applies trace.DefaultSample and
// raises the budget to DefaultSampledInsts — the regime where sampling
// pays; an explicit spec keeps the caller's budget untouched so tests
// can shrink both together.
func Figure9ProgramsSampled(ctx context.Context, opt Options) (Figure9Result, error) {
	if !opt.Sample.Enabled() {
		opt.Sample = trace.DefaultSample()
		if opt.Insts < DefaultSampledInsts {
			opt.Insts = DefaultSampledInsts
		}
	}
	opt = opt.withDefaults()
	suite, err := opt.programSuite()
	if err != nil {
		return Figure9Result{}, err
	}
	res, err := figure9Over(ctx, opt, suite)
	if err != nil {
		return Figure9Result{}, err
	}
	res.Suite = "program-sampled"
	return res, nil
}

// AblationCommitPoliciesPrograms is the commit-policy comparison over
// the real-program suite, with AblationCommitPolicies' variant set.
func AblationCommitPoliciesPrograms(ctx context.Context, opt Options) (AblationResult, error) {
	opt = opt.withDefaults()
	suite, err := opt.programSuite()
	if err != nil {
		return AblationResult{}, err
	}
	return opt.sweepSuite(ctx, "commit policies (program suite)", commitPolicyVariants(), suite)
}
