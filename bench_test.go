package repro

// One benchmark per table/figure of the paper's evaluation. Each
// iteration regenerates the corresponding experiment on a reduced
// instruction budget (benchInsts) so -bench=. completes in minutes;
// full-budget numbers come from cmd/experiments. The suite-average IPC of the headline configuration
// is attached as a custom metric so regressions in simulated performance
// (not just simulator speed) are visible. Figures execute through the
// internal/sim worker pool; BenchmarkFigure9Parallel measures the same
// sweep at full parallelism (see also internal/sim's
// BenchmarkFigure9Sweep for the per-worker-count scaling curve).

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/isa/programs"
	"repro/internal/lsq"
	"repro/internal/sim"
	"repro/internal/trace"
)

// benchInsts keeps each configuration point short; the touched data
// footprint still exceeds L2 for the streaming kernels' steady state.
const benchInsts = 60_000

func benchOpts() experiments.Options {
	return experiments.Options{Insts: benchInsts, Seed: 42, Workers: 1}
}

// BenchmarkTable1 measures a single baseline run at the paper's default
// parameters (Table 1) — the unit of work every figure multiplies.
func BenchmarkTable1(b *testing.B) {
	tr := trace.FPMix(benchInsts+benchInsts/5+4096, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cpu, err := core.New(config.Default(), tr)
		if err != nil {
			b.Fatal(err)
		}
		res := cpu.Run(core.RunOptions{MaxInsts: benchInsts})
		b.ReportMetric(res.IPC(), "IPC")
	}
}

// BenchmarkFigure1 regenerates the window-size vs memory-latency sweep.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure1(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.ByLatency[1000][len(r.Windows)-1], "IPC-4096@1000")
	}
}

// BenchmarkFigure7 regenerates the live-instruction distribution.
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure7(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Points[2].Inflight), "median-inflight")
	}
}

// benchFigure9 times Figure9 at the given worker count with suite
// traces cached and pre-generated, so the measurement isolates the
// sweep engine rather than the serial trace-generation phase.
func benchFigure9(b *testing.B, workers int) {
	opt := benchOpts().WithTraceCache()
	opt.Workers = workers
	if _, err := experiments.Figure9(context.Background(), opt); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure9(context.Background(), opt)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.IPC[2048][128], "IPC-cooo128/2048")
	}
}

// BenchmarkFigure9 regenerates the main performance comparison serially
// (Figure 11's in-flight averages come from the same runs).
func BenchmarkFigure9(b *testing.B) { benchFigure9(b, 1) }

// BenchmarkFigure9Parallel regenerates the same sweep with the worker
// pool at GOMAXPROCS; the ratio to BenchmarkFigure9 is the engine's
// wall-clock speedup on this host.
func BenchmarkFigure9Parallel(b *testing.B) { benchFigure9(b, runtime.GOMAXPROCS(0)) }

// BenchmarkFigure9Programs regenerates the figure-9 grid over the
// real-program (RV32) suite: each iteration re-executes every program
// into a dynamic trace and sweeps the full grid, so the measurement
// covers the program frontend (decode + architectural execution +
// trace mapping) as well as the sweep engine. The warm-up call outside
// the timer populates the trace cache; iterations then isolate the
// simulation cost, matching benchFigure9's methodology.
func BenchmarkFigure9Programs(b *testing.B) {
	opt := benchOpts().WithTraceCache()
	if _, err := experiments.Figure9Programs(context.Background(), opt); err != nil {
		b.Fatal(err)
	}
	// Record fires serially per run; summing committed instructions lets
	// CI divide allocs/op by committed/op to enforce the <= 1.0
	// allocations-per-committed-instruction budget on the program path
	// (program traces can end before the Insts budget, so the count
	// cannot be derived from points x Insts). Only simulated runs count:
	// a sweep reuses the result of a SLIQ that never filled for every
	// larger SLIQ of its ladder (see sim.Sweep), and each copy shares its
	// LSQ counters, which every program run carries, with the run it
	// copies.
	var committed uint64
	simulated := make(map[*lsq.Stats]bool)
	opt.Record = func(rec experiments.RunRecord) {
		if !simulated[rec.Results.LSQ] {
			simulated[rec.Results.LSQ] = true
			committed += rec.Results.Committed
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(simulated)
		r, err := experiments.Figure9Programs(context.Background(), opt)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.IPC[2048][128], "IPC-cooo128/2048")
	}
	b.ReportMetric(float64(committed)/float64(b.N), "committed/op")
}

// BenchmarkFigure9HighLatency measures the event-driven clock skip in
// the regime it targets: the ROB-blocked baseline family over the
// figure-9 window axis (32/64/128), with the memory latency raised to
// 500 and 1000 cycles. A blocked ROB head leaves the whole pipeline
// quiescent for the better part of each miss, so the simulated clock
// spends most of its ticks doing nothing — exactly the cycles the skip
// elides (the COoO configurations keep committing through misses and
// are covered by BenchmarkFigure9). The sweep runs the two suite
// kernels whose reduced-budget (benchInsts) footprints actually reach
// main memory; the in-cache kernels never observe MemoryLatency and
// would only dilute the measurement. The noskip variants force
// cycle-by-cycle simulation of the same (bit-identical) points, so the
// noskip/skip ns-per-op ratio at each latency is the engine's speedup.
// CI gates on >=2x at latency 1000 and on the ratio growing from 500
// to 1000: stall stretches lengthen with latency while the event count
// stays fixed, so the speedup must rise.
func BenchmarkFigure9HighLatency(b *testing.B) {
	memBound := map[string]bool{"strided": true, "fpmix": true}
	var traces []*trace.Trace
	for _, bm := range experiments.SuiteBenchmarks(42) {
		if memBound[bm.Name] {
			tr, err := bm.Recipe(trace.LenFor(benchInsts)).Materialise()
			if err != nil {
				b.Fatal(err)
			}
			traces = append(traces, tr)
		}
	}
	for _, latency := range []int{500, 1000} {
		for _, mode := range []struct {
			name        string
			disableSkip bool
		}{{"skip", false}, {"noskip", true}} {
			var specs []sim.RunSpec
			for _, tr := range traces {
				for _, rob := range []int{32, 64, 128} {
					cfg := config.BaselineSized(rob)
					cfg.MemoryLatency = latency
					specs = append(specs, sim.RunSpec{
						Name:        fmt.Sprintf("rob%d", rob),
						Config:      cfg,
						Trace:       tr,
						Insts:       benchInsts,
						DisableSkip: mode.disableSkip,
					})
				}
			}
			b.Run(fmt.Sprintf("lat%d/%s", latency, mode.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := sim.Sweep(context.Background(), specs, sim.Options{Workers: 1})
					if err != nil {
						b.Fatal(err)
					}
					var cycles, skipped uint64
					for _, r := range res {
						cycles += uint64(r.Cycles)
						skipped += r.SkippedCycles
					}
					b.ReportMetric(100*float64(skipped)/float64(cycles), "skipped-%")
				}
			})
		}
	}
}

// BenchmarkAblationCommitPolicies regenerates the commit-policy
// comparison (rob 128/4096, checkpoint, adaptive, oracle over the
// figure-9 workload set) — the ablation added with the policy engine.
func BenchmarkAblationCommitPolicies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationCommitPolicies(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.IPC["adaptive-128/2048"], "IPC-adaptive")
		b.ReportMetric(r.IPC["oracle-unbounded"], "IPC-oracle")
	}
}

// BenchmarkFigure10 regenerates the re-insertion delay sensitivity.
func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure10(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.MaxSlowdown(), "worst-slowdown-%")
	}
}

// BenchmarkFigure11 regenerates the in-flight instruction study. It
// shares implementation with Figure 9, as in the paper.
func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure9(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Inflight[2048][128], "inflight-cooo128/2048")
	}
}

// BenchmarkFigure12 regenerates the pseudo-ROB retirement breakdown.
func BenchmarkFigure12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure12(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.Breakdown[2048][128].Fraction(0), "moved-%")
	}
}

// BenchmarkFigure13 regenerates the checkpoint-count sensitivity.
func BenchmarkFigure13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure13(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.Slowdown(8), "slowdown-8ckpts-%")
	}
}

// BenchmarkFigure14 regenerates the virtual-register combination study.
func BenchmarkFigure14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure14(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.IPC[1000][2048][512], "IPC-2048tags/512phys@1000")
	}
}

// BenchmarkFigure9ProgramsSampled measures SMARTS sampling end to end
// at the regime it targets: the program figure-9 grid at the 4M-inst
// default sampled budget, against its full-detail reference. The full
// sweep runs once outside the timer (wall-clocked separately); timed
// iterations run the sampled sweep. Two custom metrics carry the PR's
// acceptance contract into CI: speedup-vs-full (sampled must be >= 5x
// faster) and ci-misses (how many of the 55 per-program points have a
// full-detail IPC outside the sampled run's own reported 95% interval;
// must be 0 — the accuracy claim sampled figures rest on).
func BenchmarkFigure9ProgramsSampled(b *testing.B) {
	base := experiments.Options{Insts: experiments.DefaultSampledInsts, Seed: 42, Workers: 1}

	fullIPC := make(map[string]float64)
	fullOpt := base.WithTraceCache()
	fullOpt.Record = func(rec experiments.RunRecord) {
		fullIPC[rec.Benchmark+"|"+rec.Config] = rec.Results.IPC()
	}
	fullStart := time.Now()
	if _, err := experiments.Figure9Programs(context.Background(), fullOpt); err != nil {
		b.Fatal(err)
	}
	fullDur := time.Since(fullStart)

	type interval struct{ mean, ci float64 }
	var sampled map[string]interval
	sampledOpt := base
	sampledOpt.Record = func(rec experiments.RunRecord) {
		s := rec.Results.Sampled
		if s == nil {
			b.Errorf("%s (%s): sampled run returned no Sampled block", rec.Benchmark, rec.Config)
			return
		}
		sampled[rec.Benchmark+"|"+rec.Config] = interval{s.IPCMean(), s.IPCCI95()}
	}
	var sampledDur time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sampled = make(map[string]interval)
		start := time.Now()
		if _, err := experiments.Figure9ProgramsSampled(context.Background(), sampledOpt); err != nil {
			b.Fatal(err)
		}
		sampledDur = time.Since(start)
	}
	b.StopTimer()

	misses := 0
	for key, f := range fullIPC {
		s, ok := sampled[key]
		if !ok {
			b.Fatalf("sampled sweep missing point %s", key)
		}
		if gap := math.Abs(f - s.mean); gap > s.ci {
			misses++
			b.Logf("ci miss: %s sampled %.4f +/- %.4f vs full-detail %.4f", key, s.mean, s.ci, f)
		}
	}
	b.ReportMetric(float64(fullDur)/float64(sampledDur), "speedup-vs-full")
	b.ReportMetric(float64(misses), "ci-misses")
}

// BenchmarkRV32Stream measures the functional frontend alone: each
// iteration opens every registered program's recipe stream at a 1M-inst
// budget and drains it to the halt through Peek/Skip, the way sampled
// fast-forward consumes it. ns/inst and MIPS count mapped pipeline
// instructions, so they compare directly with the benchmark's
// rv32.stream_ns_per_inst.
func BenchmarkRV32Stream(b *testing.B) {
	var recipes []trace.Recipe
	for _, name := range programs.Names() {
		r, err := experiments.ProgramRecipe(name, 1_000_000, 42)
		if err != nil {
			b.Fatal(err)
		}
		recipes = append(recipes, r)
	}
	var streamed int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range recipes {
			st, err := r.OpenStream()
			if err != nil {
				b.Fatal(err)
			}
			for {
				in, err := st.Peek(8192)
				if err != nil {
					b.Fatal(err)
				}
				if len(in) == 0 {
					break
				}
				st.Skip(len(in))
				streamed += int64(len(in))
			}
		}
	}
	ns := float64(b.Elapsed().Nanoseconds()) / float64(streamed)
	b.ReportMetric(ns, "ns/inst")
	b.ReportMetric(1e3/ns, "MIPS")
}
