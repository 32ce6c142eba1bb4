package trace

import "fmt"

// MixWeights sets the iteration-level interleave ratio of the FP mix
// kernels. Each weight is the number of iterations of that kernel per
// scheduling round.
type MixWeights struct {
	Stream    int // unit-stride triad
	Strided   int // stride-8 triad (every load misses L2)
	Stencil   int
	Reduction int
	Blocked   int
	Cond      int // data-dependent branches off the fast index chain
	CondSlow  int // data-dependent branches off a loaded value
}

// DefaultWeights approximates the SPEC2000fp average the paper reports:
// ~35% loads of which roughly a quarter miss L2 (≈10% of all
// instructions, Figure 12's "Long Lat. Loads" band), ~9% stores, ~30% FP
// arithmetic, and a low branch misprediction rate.
func DefaultWeights() MixWeights {
	return MixWeights{Stream: 3, Strided: 2, Stencil: 2, Reduction: 2, Blocked: 2, Cond: 12, CondSlow: 4}
}

// Validate reports nonsensical weights.
func (w MixWeights) Validate() error {
	total := w.Stream + w.Strided + w.Stencil + w.Reduction + w.Blocked + w.Cond + w.CondSlow
	if total <= 0 {
		return fmt.Errorf("trace: mix weights sum to %d", total)
	}
	for _, v := range []int{w.Stream, w.Strided, w.Stencil, w.Reduction, w.Blocked, w.Cond, w.CondSlow} {
		if v < 0 {
			return fmt.Errorf("trace: negative mix weight in %+v", w)
		}
	}
	return nil
}

// FPMix generates the paper's headline workload: a deterministic
// weighted interleave of the FP kernels with DefaultWeights.
func FPMix(n int, seed uint64) *Trace {
	return generate(Recipe{Kernel: KernelFPMix, N: n, Seed: seed})
}

// Mix generates a weighted interleave of the FP kernels. Each kernel
// instance owns a disjoint register window and address region, so
// interleaving changes scheduling pressure without creating false
// cross-kernel dependences. Only the default weights have a declarative
// recipe (FPMix); custom weights produce an anonymous, unfingerprintable
// trace drained from the same kind of stream.
func Mix(n int, seed uint64, w MixWeights) *Trace {
	if w == DefaultWeights() {
		return FPMix(n, seed)
	}
	round, err := mixRound(seed, w)
	if err != nil {
		panic(err)
	}
	tr, _ := synthStream("fpmix", round).drain(n, n) // synthetic streams never fail
	return tr
}

// mixRound builds the kernel instances and the one scheduling round of
// a mix stream. All instances draw from one PRNG in round emission
// order, so the stream is a pure function of the seed and weights.
func mixRound(seed uint64, w MixWeights) ([]iterSource, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	rng := newPRNG(seed)

	// Disjoint register windows: 4 integer registers per instance, and
	// FP budgets matching each kernel's needs (reduction uses 8).
	win := func(i, fpBase, fpN int) regWindow {
		return regWindow{intBase: 4 * i, intN: 4, fpBase: fpBase, fpN: fpN}
	}
	stream := newStreamKernel(win(0, 0, 6), 0, 0x1000, 1, rng)
	strided := newStreamKernel(win(1, 6, 6), 1, 0x2000, 8, rng)
	stencil := newStencilKernel(win(2, 12, 7), 2, 0x3000)
	reduction := newReductionKernel(win(3, 19, 7), 3, 0x4000)
	blocked := newBlockedKernel(win(4, 26, 5), 4, 0x5000)
	cond := newCondKernel(win(5, 0, 1), 5, 0x6000, 0.9, false, rng)
	condSlow := newCondKernel(win(6, 0, 1), 6, 0x7000, 0.9, true, rng)

	type slot struct {
		src    iterSource
		weight int
	}
	slots := []slot{
		{stream, w.Stream},
		{strided, w.Strided},
		{stencil, w.Stencil},
		{reduction, w.Reduction},
		{blocked, w.Blocked},
		{cond, w.Cond},
		{condSlow, w.CondSlow},
	}

	// Build one scheduling round: weight[i] iterations of kernel i,
	// interleaved by largest-remaining-credit so the round mixes finely
	// instead of running each kernel in a burst.
	var round []iterSource
	credits := make([]int, len(slots))
	remaining := 0
	for i, s := range slots {
		credits[i] = s.weight
		remaining += s.weight
	}
	deficit := make([]int, len(slots))
	for remaining > 0 {
		best := -1
		for i := range slots {
			if credits[i] == 0 {
				continue
			}
			deficit[i] += slots[i].weight
			if best < 0 || deficit[i] > deficit[best] {
				best = i
			}
		}
		deficit[best] = 0
		credits[best]--
		remaining--
		round = append(round, slots[best].src)
	}
	return round, nil
}
