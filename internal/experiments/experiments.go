// Package experiments regenerates every table and figure of the paper's
// evaluation (section 4). Each FigureN function sweeps the paper's
// parameters over the synthetic SPEC2000fp-stand-in suite and reports
// suite averages, mirroring the paper's "averaging over all the
// applications in the set". `experiments -list` prints the experiment
// index.
//
// Execution goes through the internal/sim worker-pool engine: every
// figure flattens its parameter grid into one []sim.RunSpec, submits it
// to sim.Sweep once, and post-processes the (spec-ordered) results, so
// the whole evaluation parallelises across Options.Workers without any
// figure-specific concurrency code.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/config"
	"repro/internal/keyed"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Options bounds every experiment run.
type Options struct {
	// Insts is the committed-instruction target per configuration
	// point. It must be large enough that each workload's touched
	// footprint exceeds the L2 capacity (README, "Workloads"); DefaultInsts
	// satisfies that with margin.
	Insts uint64
	// Seed parameterises the mixed workload; zero selects 42.
	Seed uint64
	// Workers bounds the sweep worker pool; <= 0 uses GOMAXPROCS.
	Workers int
	// Progress, when non-nil, receives one line per completed run (in
	// completion order when Workers > 1) plus the sweep's completion
	// count — done runs out of total — so callers can render real
	// progress/ETA.
	Progress func(done, total int, line string)
	// Record, when non-nil, receives every completed run for machine
	// consumption (cmd/experiments -json). Each sweep hands its runs
	// over in spec order when it returns, whatever the worker count or
	// runner; a sweep that fails or is interrupted hands over the runs
	// it finished. Calls are serialised.
	Record func(RunRecord)
	// Runner, when non-nil, replaces the in-process sweep engine for
	// every figure: cmd/experiments -server installs the simulation
	// service client's remote runner here, so the same figure code runs
	// against a warm remote cache. Nil means sim.Sweep.
	Runner func(ctx context.Context, specs []sim.RunSpec, opt sim.Options) ([]stats.Results, error)
	// DisableSkip forces cycle-by-cycle simulation on every point
	// (cmd/experiments -no-skip); results are bit-identical either way.
	DisableSkip bool
	// Sample, when enabled, runs every point under the SMARTS sampling
	// protocol (sim.RunSpec.Sample): fast-forward with functional
	// warming between detailed measurement windows. Sampled figures set
	// it themselves; leaving it zero keeps full-detail simulation.
	Sample trace.SampleSpec

	// cache, when set by WithTraceCache, shares generated suite traces
	// across figures. Traces are immutable once built (guarded by a core
	// test), so a cached set is shared read-only across figures and
	// across every concurrent CPU inside a sweep.
	cache *keyed.Memo[suiteKey, []suiteTrace]
}

// RunRecord is the machine-readable form of one completed run.
type RunRecord struct {
	Benchmark string        `json:"benchmark"`
	Config    string        `json:"config"`
	Results   stats.Results `json:"results"`
}

// DefaultInsts is the per-point instruction budget used by the paper
// reproduction runs (the paper used 300M-instruction SimPoint regions;
// our stationary kernels converge far faster).
const DefaultInsts = 300_000

// Defaults fills unset options.
func (o Options) withDefaults() Options {
	if o.Insts == 0 {
		o.Insts = DefaultInsts
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

// Benchmark is one suite member: a named workload and its declarative
// identity for a trace length (Recipe — what -server ships instead of
// megabytes of instruction stream, and what Materialise regenerates).
type Benchmark struct {
	Name   string
	Recipe func(n int) trace.Recipe
}

// SuiteBenchmarks returns the evaluation suite, the synthetic stand-in
// for SPEC2000fp (README, "Workloads"): two latency-wall streams, a
// moderately memory-bound stencil, an ILP-limited reduction, a
// cache-resident blocked kernel, and the mixed composite.
func SuiteBenchmarks(seed uint64) []Benchmark {
	return []Benchmark{
		{"stream", func(n int) trace.Recipe { return trace.Recipe{Kernel: trace.KernelStream, N: n} }},
		{"strided", func(n int) trace.Recipe { return trace.Recipe{Kernel: trace.KernelStrided, N: n, Stride: 8} }},
		{"stencil", func(n int) trace.Recipe { return trace.Recipe{Kernel: trace.KernelStencil, N: n} }},
		{"reduction", func(n int) trace.Recipe { return trace.Recipe{Kernel: trace.KernelReduction, N: n} }},
		{"blocked", func(n int) trace.Recipe { return trace.Recipe{Kernel: trace.KernelBlocked, N: n} }},
		{"fpmix", func(n int) trace.Recipe { return trace.Recipe{Kernel: trace.KernelFPMix, N: n, Seed: seed} }},
	}
}

// suiteKey names one generated suite in the trace cache.
type suiteKey struct {
	insts, seed uint64
	// program distinguishes the real-program suite from the synthetic
	// one (both are cached under the same Options).
	program bool
}

// WithTraceCache returns Options that generate each suite trace set
// once and reuse it across figures (cmd/experiments -figure all shares
// one generation pass this way).
func (o Options) WithTraceCache() Options {
	o.cache = &keyed.Memo[suiteKey, []suiteTrace]{}
	return o
}

// suite returns the benchmark traces. For full-detail points run in
// process they are materialised (once per experiment, or once per
// process under WithTraceCache). Otherwise only the recipes are needed:
// a remote Runner's server regenerates (and memoises) the workloads
// itself, so a warm remote rerun skips local generation entirely, and
// sampled points open their recipe streams and never read a whole trace.
func (o Options) suite() ([]suiteTrace, error) {
	return o.someSuite(false, buildSuite)
}

// programSuite returns the real-program benchmark traces (see
// programs.go), with the same caching and recipe-only behaviour as the
// synthetic suite.
func (o Options) programSuite() ([]suiteTrace, error) {
	return o.someSuite(true, buildProgramSuite)
}

func (o Options) someSuite(program bool, build func(insts, seed uint64, recipeOnly bool) ([]suiteTrace, error)) ([]suiteTrace, error) {
	if o.Runner != nil || o.Sample.Enabled() {
		return build(o.Insts, o.Seed, true)
	}
	if o.cache != nil {
		ts, _, err := o.cache.Get(suiteKey{o.Insts, o.Seed, program}, func() ([]suiteTrace, error) {
			return build(o.Insts, o.Seed, false)
		})
		return ts, err
	}
	return build(o.Insts, o.Seed, false)
}

func buildSuite(insts, seed uint64, recipeOnly bool) ([]suiteTrace, error) {
	bs := SuiteBenchmarks(seed)
	out := make([]suiteTrace, len(bs))
	for i, b := range bs {
		tr, err := suiteMember(b.Recipe(trace.LenFor(insts)), recipeOnly)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", b.Name, err)
		}
		out[i] = suiteTrace{name: b.Name, tr: tr}
	}
	return out, nil
}

// suiteMember materialises r, or returns its recipe-only handle.
func suiteMember(r trace.Recipe, recipeOnly bool) (*trace.Trace, error) {
	if recipeOnly {
		return trace.StreamOnly(r)
	}
	return r.Materialise()
}

type suiteTrace struct {
	name string
	tr   *trace.Trace
}

// point is one labelled configuration evaluated over the whole suite.
type point struct {
	cfg        config.Config
	collectOcc bool
}

// runPoints expands every point over the suite into one flat RunSpec
// list, submits it to the sweep engine in a single call, and regroups
// the spec-ordered results per point (each group is in suite order).
func (o Options) runPoints(ctx context.Context, points []point, suite []suiteTrace) ([][]stats.Results, error) {
	specs := make([]sim.RunSpec, 0, len(points)*len(suite))
	for _, p := range points {
		for _, st := range suite {
			specs = append(specs, sim.RunSpec{
				Name:             st.name,
				Config:           p.cfg,
				Trace:            st.tr,
				Insts:            o.Insts,
				CollectOccupancy: p.collectOcc,
				DisableSkip:      o.DisableSkip,
				Sample:           o.Sample,
			})
		}
	}
	sopt := sim.Options{Workers: o.Workers, Progress: o.Progress}
	if o.Record != nil {
		// Runs complete in any order. Park each under its spec index and
		// record them in index order once the sweep returns, failed or
		// not. Identical specs give identical results, so which of their
		// indices a completion takes does not matter.
		finished := make([]*stats.Results, len(specs))
		open := make(map[sim.RunSpec][]int, len(specs))
		for i, s := range specs {
			open[s] = append(open[s], i)
		}
		sopt.OnResult = func(spec sim.RunSpec, res stats.Results) {
			is := open[spec]
			finished[is[0]] = &res
			open[spec] = is[1:]
		}
		defer func() {
			for i, res := range finished {
				if res != nil {
					o.Record(RunRecord{
						Benchmark: specs[i].Name,
						Config:    specs[i].Config.Summary(),
						Results:   *res,
					})
				}
			}
		}()
	}
	run := o.Runner
	if run == nil {
		run = sim.Sweep
	}
	flat, err := run(ctx, specs, sopt)
	if err != nil {
		return nil, err
	}
	groups := make([][]stats.Results, len(points))
	for i := range points {
		groups[i] = flat[i*len(suite) : (i+1)*len(suite)]
	}
	return groups, nil
}

// meanIPC returns the arithmetic-mean IPC of one point's suite results.
func meanIPC(rs []stats.Results) float64 {
	sum := 0.0
	for _, r := range rs {
		sum += r.IPC()
	}
	return sum / float64(len(rs))
}

// meanInflight returns the average of the per-run mean in-flight counts.
func meanInflight(rs []stats.Results) float64 {
	sum := 0.0
	for _, r := range rs {
		sum += r.MeanInflight
	}
	return sum / float64(len(rs))
}

// Table1 returns the baseline architectural parameters, rendered like
// the paper's Table 1.
func Table1() string {
	return config.Default().String()
}

// renderTable formats a simple aligned table.
func renderTable(title string, header []string, rows [][]string) string {
	var b strings.Builder
	b.WriteString(title)
	b.WriteString("\n")
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(header)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f0(v float64) string { return fmt.Sprintf("%.0f", v) }
