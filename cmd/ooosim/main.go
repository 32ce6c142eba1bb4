// Command ooosim runs a single processor configuration over one
// workload and prints the detailed results — the quick way to explore
// the simulator outside the paper's fixed sweeps.
//
// Examples:
//
//	ooosim -commit checkpoint -iq 64 -sliq 1024 -workload fpmix -mem 1000
//	ooosim -commit rob -rob 128 -workload stream -mem 500 -insts 200000
//	ooosim -commit checkpoint -program isort -insts 100000
//
// -dump-config prints the flag-built configuration as canonical JSON
// (the ooosimd batch-API wire form) and exits; -config FILE loads a
// complete configuration from such a file instead of the flags.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/config"
	"repro/internal/isa/programs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	commit := flag.String("commit", "checkpoint", "commit policy: rob, checkpoint, adaptive or oracle")
	robEntries := flag.Int("rob", 4096, "ROB entries (rob mode); also sizes queues")
	iq := flag.Int("iq", 128, "issue-queue and pseudo-ROB entries (checkpoint/adaptive modes)")
	sliq := flag.Int("sliq", 2048, "SLIQ entries (checkpoint/adaptive modes; 0 disables)")
	ckpts := flag.Int("checkpoints", 8, "checkpoint-table entries (checkpoint/adaptive modes)")
	confThreshold := flag.Int("conf-threshold", 8, "adaptive mode: a branch below this confidence gets a checkpoint (1..15)")
	mem := flag.Int("mem", 1000, "memory latency in cycles")
	perfectL2 := flag.Bool("perfect-l2", false, "make every L2 access hit")
	workload := flag.String("workload", "fpmix", "stream|strided|stencil|reduction|blocked|pointerchase|fpmix")
	program := flag.String("program", "", "run a real RV32 program instead of a synthetic workload: "+strings.Join(programs.Names(), "|"))
	input := flag.Int("input", 0, "program input size (-program only; 0 sizes it from -insts)")
	insts := flag.Uint64("insts", 300000, "committed instructions to simulate")
	sample := flag.String("sample", "", "SMARTS sampled simulation as warmup:detail:period (e.g. 10000:10000:200000); -insts then bounds the streamed budget")
	seed := flag.Uint64("seed", 42, "workload seed (fpmix and programs)")
	vregs := flag.Int("vtags", 0, "enable virtual registers with this many tags (0 = off)")
	phys := flag.Int("phys", 4096, "physical registers")
	configFile := flag.String("config", "", "load the complete configuration from a canonical-JSON file (config flags are then ignored)")
	dumpConfig := flag.Bool("dump-config", false, "print the configuration as canonical JSON and exit (the ooosimd batch wire form)")
	flag.Parse()

	var cfg config.Config
	if *configFile != "" {
		data, err := os.ReadFile(*configFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cfg, err = config.ParseJSON(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", *configFile, err)
			os.Exit(1)
		}
	} else {
		mode, err := config.ParseCommitMode(*commit)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		// A flag only some policies read must not be silently dropped
		// for the others (the CLI mirror of config.Validate's
		// ignored-parameter-block rule): an explicitly passed flag that
		// the selected policy ignores is an error, not a no-op.
		ckptFamily := []config.CommitMode{config.CommitCheckpoint, config.CommitAdaptive}
		flagModes := map[string][]config.CommitMode{
			"rob":            {config.CommitROB},
			"iq":             ckptFamily,
			"sliq":           ckptFamily,
			"checkpoints":    ckptFamily,
			"vtags":          ckptFamily,
			"conf-threshold": {config.CommitAdaptive},
		}
		flag.Visit(func(f *flag.Flag) {
			allowed, restricted := flagModes[f.Name]
			if !restricted {
				return
			}
			for _, m := range allowed {
				if m == mode {
					return
				}
			}
			fmt.Fprintf(os.Stderr, "-%s does not apply to -commit %s\n", f.Name, mode)
			os.Exit(2)
		})
		switch mode {
		case config.CommitROB:
			cfg = config.BaselineSized(*robEntries)
		case config.CommitCheckpoint:
			cfg = config.CheckpointDefault(*iq, *sliq)
			cfg.Checkpoints = *ckpts
		case config.CommitAdaptive:
			cfg = config.AdaptiveDefault(*iq, *sliq)
			cfg.Checkpoints = *ckpts
			cfg.AdaptiveConfidenceThreshold = *confThreshold
		case config.CommitOracle:
			cfg = config.OracleDefault()
		}
		cfg.MemoryLatency = *mem
		cfg.PerfectL2 = *perfectL2
		cfg.PhysRegs = *phys
		if *vregs > 0 {
			cfg.VirtualRegisters = true
			cfg.VirtualTags = *vregs
		}
	}

	if *dumpConfig {
		data, err := cfg.CanonicalJSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(string(data))
		return
	}

	// The workload flags build a trace recipe: the same declarative
	// identity a service batch ships, so the kernel dispatch (and its
	// validation) lives in one place.
	var recipe trace.Recipe
	if *program != "" {
		// -program replaces -workload; saying both is a contradiction,
		// not a precedence question.
		workloadSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "workload" {
				workloadSet = true
			}
		})
		if workloadSet {
			fmt.Fprintln(os.Stderr, "-program and -workload are mutually exclusive")
			os.Exit(2)
		}
		spec, ok := programs.Lookup(*program)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown program %q; available: %s\n", *program, strings.Join(programs.Names(), ", "))
			os.Exit(2)
		}
		in := *input
		if in == 0 {
			in = spec.InputFor(*insts)
		}
		recipe = trace.Recipe{Kernel: trace.KernelProgram, Program: *program, Input: in, Seed: *seed}
	} else {
		if *input != 0 {
			fmt.Fprintln(os.Stderr, "-input applies only with -program")
			os.Exit(2)
		}
		recipe = trace.Recipe{Kernel: *workload, N: trace.LenFor(*insts)}
		switch *workload {
		case trace.KernelStrided:
			recipe.Stride = 8
		case trace.KernelFPMix:
			recipe.Seed = *seed
		}
	}
	// Sampled runs stream the recipe (no materialisation, and the
	// per-allocation recipe cap does not apply); full-detail runs
	// materialise as before.
	var sampleSpec trace.SampleSpec
	if *sample != "" {
		var err error
		if sampleSpec, err = parseSample(*sample); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	var tr *trace.Trace
	var err error
	if sampleSpec.Enabled() {
		tr, err = trace.StreamOnly(recipe)
	} else {
		tr, err = recipe.Materialise()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	res, err := sim.Run(sim.RunSpec{
		Name:   recipe.WorkloadName(),
		Config: cfg,
		Trace:  tr,
		Insts:  *insts,
		Sample: sampleSpec,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	printResults(cfg, res)
}

// parseSample parses the -sample flag's warmup:detail:period form. The
// all-zero spec, which the library reads as "not sampled", is an error
// here: a run asked to sample must not fall back to full detail.
func parseSample(s string) (trace.SampleSpec, error) {
	var spec trace.SampleSpec
	if _, err := fmt.Sscanf(s, "%d:%d:%d", &spec.Warmup, &spec.Detail, &spec.Period); err != nil {
		return trace.SampleSpec{}, fmt.Errorf("-sample wants warmup:detail:period instruction counts, got %q", s)
	}
	if !spec.Enabled() {
		return trace.SampleSpec{}, fmt.Errorf("-sample %q: detail window must be >= 1 (omit -sample for a full-detail run)", s)
	}
	return spec, spec.Validate()
}

func printResults(cfg config.Config, r stats.Results) {
	fmt.Println("Configuration")
	fmt.Println(strings.Repeat("-", 60))
	fmt.Print(cfg)
	fmt.Println()
	fmt.Println("Results")
	fmt.Println(strings.Repeat("-", 60))
	row := func(k string, format string, args ...any) {
		fmt.Printf("%-28s %s\n", k, fmt.Sprintf(format, args...))
	}
	row("IPC", "%.3f", r.IPC())
	if s := r.Sampled; s != nil {
		row("Sampled IPC (95% CI)", "%.3f ± %.3f over %d windows", s.IPCMean(), s.IPCCI95(), s.Windows)
		row("Sampling coverage", "%d measured + %d warmup of %d insts (%.1f%% detail)",
			s.SampledInsts, s.WarmupInsts, s.TotalInsts, 100*s.DetailFraction())
		row("Fast-forwarded", "%d insts (functional warming only)", s.FastForwardInsts)
	}
	row("Cycles", "%d", r.Cycles)
	row("Committed", "%d", r.Committed)
	row("Fetched", "%d", r.Fetched)
	row("Replayed (rollback waste)", "%d (%.2f per committed)", r.Replayed, r.ReplayRate())
	row("Avg in-flight", "%.0f (max %d)", r.MeanInflight, r.MaxInflight)
	row("Branch mispredict rate", "%.2f%%", 100*r.Branch.MispredictRate())
	if r.BTB != nil {
		row("BTB hit rate", "%.1f%% (%d lookups, %d bad targets)", 100*r.BTB.HitRate(), r.BTB.Lookups, r.BTB.BadTargets)
	}
	if r.LSQ != nil {
		row("LSQ forwards", "%d (of %d loads; %d forward stalls)", r.LSQ.Forwards, r.LSQ.Loads, r.LSQ.ForwardStalls)
	}
	row("DL1 miss rate", "%.1f%%", 100*r.Mem.DL1.MissRate())
	row("L2 miss rate", "%.1f%%", 100*r.Mem.L2.MissRate())
	row("Memory line fetches", "%d (+%d merged)", r.Mem.MemAccesses, r.Mem.MergedMisses)
	if r.CheckpointsTaken > 0 {
		row("Checkpoints taken", "%d (committed %d)", r.CheckpointsTaken, r.CheckpointsCommitted)
		row("Checkpoint-full stalls", "%d cycles", r.CheckpointStallCycles)
		row("Rollbacks", "%d (pseudo-ROB recoveries %d)", r.Rollbacks, r.PseudoROBRecoveries)
		row("SLIQ moved/woken", "%d / %d", r.SLIQMoved, r.SLIQWoken)
		if r.Retire.Total() > 0 {
			row("Pseudo-ROB breakdown", "%s", r.Retire.String())
		}
	}
}
