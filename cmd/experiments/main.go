// Command experiments regenerates the paper's evaluation: every figure
// of "Out-of-Order Commit Processors" (HPCA 2004), computed on the
// synthetic SPEC2000fp-stand-in suite.
//
// Usage:
//
//	experiments [-figure all|table1|1|7|9|10|11|12|13|14|figure9-programs|figure9-programs-sampled|commit-policies|commit-policies-programs|ablations]
//	            [-commit policy,...] [-insts N] [-seed S] [-parallel N]
//	            [-json FILE] [-server URL] [-no-skip] [-cpuprofile FILE]
//	            [-memprofile FILE] [-list] [-v]
//
// -list prints every valid -figure name with a one-line description and
// exits. -commit restricts the commit-policies ablation to a subset of
// the policies (rob, checkpoint, adaptive, oracle).
//
// Figures 9 and 11 share their simulation runs, as in the paper. Every
// figure executes through the internal/sim worker pool: -parallel N
// bounds the pool (default GOMAXPROCS), and the rendered tables are
// identical for every worker count because results are ordered by spec,
// not by completion. -json FILE additionally dumps every run's raw
// results for machine consumption, each sweep's runs in spec order, so
// two dumps of the same figures diff clean at any worker count.
//
// -server URL routes every simulation point to an ooosimd daemon
// instead of the in-process pool: previously computed points return
// from the daemon's content-addressed cache without simulation, so a
// warm rerun of a figure costs trace generation plus network only.
//
// -no-skip disables the simulator's event-driven clock skip, forcing
// cycle-by-cycle execution. Results are bit-identical either way (the
// skip is a pure simulator-speed optimisation); the flag exists for A/B
// debugging and timing comparisons against the event-driven engine. It
// is local-only: points routed to -server always run with skipping on.
//
// -cpuprofile and -memprofile write pprof profiles covering the
// requested figures, so profile-guided optimisation passes can target
// real sweeps instead of ad-hoc test rigs (see README "Performance").
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/service"
)

// sections is the single source of truth for valid -figure names, in
// presentation order; -list prints it, validation checks against it.
var sections = []struct{ name, desc string }{
	{"all", "every section below"},
	{"table1", "Table 1: architectural parameters"},
	{"1", "Figure 1: IPC vs in-flight instructions and memory latency (baseline)"},
	{"7", "Figure 7: live instructions inside the window (occupancy percentiles)"},
	{"9", "Figure 9: main performance results (COoO vs baselines)"},
	{"10", "Figure 10: SLIQ re-insertion delay sensitivity"},
	{"11", "Figure 11: average in-flight instructions (same runs as figure 9)"},
	{"12", "Figure 12: pseudo-ROB retirement breakdown"},
	{"13", "Figure 13: checkpoint-count sensitivity"},
	{"14", "Figure 14: virtual registers combined with checkpointed commit"},
	{"figure9-programs", "figure-9 grid over the real-program (RV32) suite"},
	{"figure9-programs-sampled", "figure-9 program grid under SMARTS sampling (defaults to a 4M-inst streamed budget; not part of 'all')"},
	{"commit-policies", "ablation: rob vs checkpoint vs adaptive vs oracle on the figure-9 workloads"},
	{"commit-policies-programs", "ablation: commit policies over the real-program suite"},
	{"ablations", "every ablation sweep (includes commit-policies)"},
}

func sectionNames() string {
	names := make([]string, len(sections))
	for i, s := range sections {
		names[i] = s.name
	}
	return strings.Join(names, ", ")
}

// jsonRecord is one run in the -json dump, labelled with the figure
// whose sweep produced it.
type jsonRecord struct {
	Figure    string `json:"figure"`
	Benchmark string `json:"benchmark"`
	Config    string `json:"config"`
	Results   any    `json:"results"`
}

func main() {
	figure := flag.String("figure", "all", "which figure to regenerate (see -list)")
	commit := flag.String("commit", "", "comma-separated commit policies for the commit-policies ablation (default: all)")
	insts := flag.Uint64("insts", experiments.DefaultInsts, "committed instructions per configuration point")
	seed := flag.Uint64("seed", 42, "workload seed (nonzero)")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "simulation worker-pool size")
	server := flag.String("server", "", "run every point against an ooosimd daemon at URL")
	jsonOut := flag.String("json", "", "write every run's raw results as JSON to FILE")
	noSkip := flag.Bool("no-skip", false, "disable the event-driven clock skip (bit-identical results, slower)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the requested figures to FILE")
	memProfile := flag.String("memprofile", "", "write an allocation profile (all allocations since start) to FILE")
	list := flag.Bool("list", false, "print every valid -figure name with a description and exit")
	verbose := flag.Bool("v", false, "print per-run progress")
	flag.Parse()

	if *list {
		for _, s := range sections {
			fmt.Printf("%-26s %s\n", s.name, s.desc)
		}
		return
	}

	// experiments.Options reads a zero Seed as the default, 42, a zero
	// Insts as DefaultInsts and fewer than one worker as GOMAXPROCS.
	if *seed == 0 {
		fmt.Fprintln(os.Stderr, "-seed: must be nonzero (0 selects the default seed 42)")
		os.Exit(2)
	}
	if *insts == 0 {
		fmt.Fprintf(os.Stderr, "-insts: must be nonzero (0 selects the default budget %d)\n", experiments.DefaultInsts)
		os.Exit(2)
	}
	if *parallel < 1 {
		fmt.Fprintf(os.Stderr, "-parallel: must be at least 1, got %d\n", *parallel)
		os.Exit(2)
	}

	// Resolve -commit up front: a typo must fail fast, not after an
	// hours-long sweep reaches the ablation. (Whether the flag applies
	// to anything requested is checked after -figure is parsed below.)
	var commitModes []config.CommitMode
	for _, name := range strings.Split(*commit, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		mode, err := config.ParseCommitMode(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-commit: %v\n", err)
			os.Exit(2)
		}
		commitModes = append(commitModes, mode)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// stopProfiles flushes the pprof outputs; every exit path (success,
	// figure failure, -json failure) must call it — os.Exit skips defers.
	stopProfiles := func() {}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		stopProfiles = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	if *memProfile != "" {
		inner := stopProfiles
		stopProfiles = func() {
			inner()
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush accurate allocation stats
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: -memprofile: %v\n", err)
			}
		}
	}
	defer stopProfiles()

	opt := experiments.Options{Insts: *insts, Seed: *seed, Workers: *parallel, DisableSkip: *noSkip}.WithTraceCache()
	if *server != "" {
		opt.Runner = (&service.Client{BaseURL: *server}).SweepRunner()
	}
	if *verbose {
		opt.Progress = func(done, total int, line string) {
			fmt.Fprintf(os.Stderr, "[%*d/%d]%s\n", len(fmt.Sprint(total)), done, total, line)
		}
	}

	records := []jsonRecord{}
	currentFigure := ""
	if *jsonOut != "" {
		// Record is invoked serially by the engine; currentFigure is
		// only written between sweeps.
		opt.Record = func(r experiments.RunRecord) {
			records = append(records, jsonRecord{
				Figure:    currentFigure,
				Benchmark: r.Benchmark,
				Config:    r.Config,
				Results:   r.Results,
			})
		}
	}

	writeJSON := func() error {
		if *jsonOut == "" {
			return nil
		}
		data, err := json.MarshalIndent(records, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %d run records to %s\n", len(records), *jsonOut)
		return nil
	}

	fail := func(name string, err error) {
		// Flush whatever completed before the failure (or interrupt):
		// partial sweep output is still hours of simulation, and a
		// partial profile still points at the hot paths.
		if jerr := writeJSON(); jerr != nil {
			fmt.Fprintf(os.Stderr, "experiments: -json: %v\n", jerr)
		}
		stopProfiles()
		fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", name, err)
		os.Exit(1)
	}

	// Validate every requested figure name before running anything: a
	// typo in a comma-separated list must not silently vanish next to
	// valid names ("-figure 9,typo" used to run figure 9 and say
	// nothing about "typo").
	known := map[string]bool{}
	for _, s := range sections {
		known[s.name] = true
	}
	want := map[string]bool{}
	bad := []string{}
	for _, f := range strings.Split(*figure, ",") {
		name := strings.TrimSpace(f)
		if name == "" {
			continue // tolerate trailing/doubled commas
		}
		if !known[name] {
			bad = append(bad, fmt.Sprintf("%q", name))
			continue
		}
		want[name] = true
	}
	if len(bad) > 0 {
		fmt.Fprintf(os.Stderr, "unknown figure %s (valid: %s; try -list)\n",
			strings.Join(bad, ", "), sectionNames())
		flag.Usage()
		os.Exit(2)
	}
	if len(want) == 0 {
		fmt.Fprintln(os.Stderr, "no figure requested")
		flag.Usage()
		os.Exit(2)
	}
	all := want["all"]

	// -commit only shapes the commit-policies sweep (standalone or
	// inside the ablation run); setting it for any other selection
	// would be silently ignored — reject it instead.
	if len(commitModes) > 0 && !all && !want["commit-policies"] && !want["ablations"] {
		fmt.Fprintln(os.Stderr, "-commit only applies to the commit-policies ablation; add -figure commit-policies (or ablations)")
		os.Exit(2)
	}

	// runSection labels, times and error-wraps one section; include
	// decides whether it runs at all.
	runSection := func(name string, include bool, fn func() error) {
		if !include {
			return
		}
		currentFigure = name
		start := time.Now()
		if err := fn(); err != nil {
			fail("figure "+name, err)
		}
		fmt.Printf("(%s: %.1fs, %d workers)\n\n", name, time.Since(start).Seconds(), *parallel)
	}
	section := func(name string, fn func() error) {
		runSection(name, all || want[name], fn)
	}

	section("table1", func() error {
		fmt.Println("Table 1: architectural parameters")
		fmt.Println(experiments.Table1())
		return nil
	})
	section("1", func() error {
		r, err := experiments.Figure1(ctx, opt)
		if err != nil {
			return err
		}
		fmt.Println(r)
		return nil
	})
	section("7", func() error {
		r, err := experiments.Figure7(ctx, opt)
		if err != nil {
			return err
		}
		fmt.Println(r)
		return nil
	})
	if all || want["9"] || want["11"] {
		// The two figures share one sweep; label its records by what
		// was actually requested ("-figure 11 -json" must not file
		// results under a figure the user never asked for).
		switch {
		case all || (want["9"] && want["11"]):
			currentFigure = "9+11"
		case want["11"]:
			currentFigure = "11"
		default:
			currentFigure = "9"
		}
		start := time.Now()
		r, err := experiments.Figure9(ctx, opt)
		if err != nil {
			fail("figure "+currentFigure, err)
		}
		if all || want["9"] {
			fmt.Println(r)
		}
		if all || want["11"] {
			fmt.Println(r.Figure11String())
		}
		fmt.Printf("(%s: %.1fs, %d workers)\n\n", currentFigure, time.Since(start).Seconds(), *parallel)
	}
	section("10", func() error {
		r, err := experiments.Figure10(ctx, opt)
		if err != nil {
			return err
		}
		fmt.Println(r)
		return nil
	})
	section("12", func() error {
		r, err := experiments.Figure12(ctx, opt)
		if err != nil {
			return err
		}
		fmt.Println(r)
		return nil
	})
	section("13", func() error {
		r, err := experiments.Figure13(ctx, opt)
		if err != nil {
			return err
		}
		fmt.Println(r)
		return nil
	})
	section("14", func() error {
		r, err := experiments.Figure14(ctx, opt)
		if err != nil {
			return err
		}
		fmt.Println(r)
		return nil
	})
	section("figure9-programs", func() error {
		r, err := experiments.Figure9Programs(ctx, opt)
		if err != nil {
			return err
		}
		fmt.Println(r)
		fmt.Println(r.Figure11String())
		return nil
	})
	// Explicit-request only: the sampled figure defaults to a 4M-inst
	// streamed budget per point (experiments.DefaultSampledInsts), an
	// order of magnitude above the other sections' budgets — folding it
	// into "all" would dominate the whole run's wall time.
	runSection("figure9-programs-sampled", want["figure9-programs-sampled"], func() error {
		r, err := experiments.Figure9ProgramsSampled(ctx, opt)
		if err != nil {
			return err
		}
		fmt.Println(r)
		fmt.Println(r.Figure11String())
		return nil
	})
	// Standalone only when the ablation run below will not already
	// cover the sweep — "-figure commit-policies,ablations" must not
	// simulate it twice (or record it twice in -json).
	runSection("commit-policies", want["commit-policies"] && !all && !want["ablations"], func() error {
		r, err := experiments.AblationCommitPolicies(ctx, opt, commitModes...)
		if err != nil {
			return err
		}
		fmt.Println(r)
		return nil
	})
	section("commit-policies-programs", func() error {
		r, err := experiments.AblationCommitPoliciesPrograms(ctx, opt)
		if err != nil {
			return err
		}
		fmt.Println(r)
		return nil
	})
	// The usage string has always advertised ablations as part of
	// "all"; honour it (it used to be silently skipped).
	section("ablations", func() error {
		s, err := experiments.Ablations(ctx, opt, commitModes...)
		if err != nil {
			return err
		}
		fmt.Println(s)
		return nil
	})

	if err := writeJSON(); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: -json: %v\n", err)
		stopProfiles()
		os.Exit(1)
	}
}
