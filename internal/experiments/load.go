package experiments

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/isa/programs"
	"repro/internal/service"
	"repro/internal/trace"
)

// LoadPoints returns the first n points of the fleet load space, the
// one cmd/ooosimload draws from and the benchmark's fleet workloads
// serve. The space is configuration-major over 33 configurations
// (checkpoint and adaptive commit at the figure-9 queue sizes, then
// oracle and ROB 128/4096); under each come the six suite kernels, then
// the five RV32 programs. Pass v runs at budget insts+v, so no point
// repeats; points are named p0, p1, .... Every fifth point runs sampled
// (period insts/2, when that is at least 260), so load also takes the
// streamed sampled path. The seed sets only the recipes' seeds, so every
// seed asks for the same mix of work.
func LoadPoints(n int, insts, seed uint64) []service.Job {
	var cfgs []config.Config
	for _, sliq := range []int{512, 1024, 2048} {
		for _, iq := range []int{32, 48, 64, 96, 128} {
			cfgs = append(cfgs, config.CheckpointDefault(iq, sliq), config.AdaptiveDefault(iq, sliq))
		}
	}
	cfgs = append(cfgs, config.OracleDefault(), config.BaselineSized(128), config.BaselineSized(4096))
	suite := SuiteBenchmarks(seed)
	names := programs.Names()
	workloads := len(suite) + len(names)
	var sample trace.SampleSpec
	if p := insts / 2; p >= 260 {
		sample = trace.SampleSpec{Warmup: p / 8, Detail: p / 4, Period: p}
	}
	jobs := make([]service.Job, n)
	for i := range jobs {
		budget := insts + uint64(i/(len(cfgs)*workloads))
		var r trace.Recipe
		if w := i % workloads; w < len(suite) {
			r = suite[w].Recipe(trace.LenFor(budget))
		} else {
			var err error
			if r, err = ProgramRecipe(names[w-len(suite)], budget, seed); err != nil {
				panic(err) // the names come from the registry itself
			}
		}
		jobs[i] = service.Job{Name: fmt.Sprintf("p%d", i), Config: cfgs[i/workloads%len(cfgs)], Trace: r, Insts: budget}
		if i%5 == 4 {
			jobs[i].Sample = sample
		}
	}
	return jobs
}
