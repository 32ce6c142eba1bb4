package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// quickOpts keeps figure regeneration fast while preserving the
// streaming kernels' steady-state miss behaviour (README, "Workloads").
func quickOpts() Options {
	return Options{Insts: 50_000, Seed: 42}
}

func ctx() context.Context { return context.Background() }

func TestSuiteBenchmarks(t *testing.T) {
	bs := SuiteBenchmarks(1)
	if len(bs) != 6 {
		t.Fatalf("suite has %d members, want 6", len(bs))
	}
	names := map[string]bool{}
	for _, b := range bs {
		if names[b.Name] {
			t.Fatalf("duplicate benchmark %q", b.Name)
		}
		names[b.Name] = true
		tr, err := b.Recipe(2000).Materialise()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
	}
}

func TestTraceCacheSharesSuite(t *testing.T) {
	opt := quickOpts().WithTraceCache()
	a, err := opt.suite()
	if err != nil {
		t.Fatal(err)
	}
	b, err := opt.suite()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("suite sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].tr != b[i].tr {
			t.Errorf("benchmark %s regenerated instead of cached", a[i].name)
		}
	}
	// Without the cache each call generates fresh traces.
	plain := quickOpts()
	p1, err := plain.suite()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := plain.suite()
	if err != nil {
		t.Fatal(err)
	}
	if p1[0].tr == p2[0].tr {
		t.Error("uncached suites unexpectedly share trace pointers")
	}
}

// TestRemoteSuiteSkipsMaterialisation: with a Runner installed, or with
// sampled points, the suite carries recipe-only traces (identity without
// the instruction stream) of the recipes the benchmarks declare. The
// sampled budget is far past the materialisation cap: sampled points
// only ever open their recipe streams.
func TestRemoteSuiteSkipsMaterialisation(t *testing.T) {
	remote := quickOpts()
	remote.Runner = func(_ context.Context, _ []sim.RunSpec, _ sim.Options) ([]stats.Results, error) {
		return nil, nil
	}
	sampled := Options{Insts: 10_000_000, Seed: 42, Sample: trace.DefaultSample()}
	for name, opt := range map[string]Options{"remote": remote, "sampled": sampled} {
		suite, err := opt.suite()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, st := range suite {
			if st.tr.Len() != 0 {
				t.Errorf("%s %s: suite materialised %d instructions", name, st.name, st.tr.Len())
			}
			want := SuiteBenchmarks(opt.Seed)[i].Recipe(trace.LenFor(opt.Insts))
			if r, ok := st.tr.Recipe(); !ok || r != want {
				t.Errorf("%s %s: suite recipe %+v, want %+v", name, st.name, r, want)
			}
		}
	}
}

func TestTable1(t *testing.T) {
	s := Table1()
	for _, want := range []string{"gshare", "1000 cycles", "4096 entries"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}
}

func TestRunPointsPropagatesErrors(t *testing.T) {
	opt := quickOpts()
	suite, err := opt.suite()
	if err != nil {
		t.Fatal(err)
	}
	// The zero config is invalid; the engine must surface the
	// validation error instead of panicking.
	_, err = opt.runPoints(ctx(), []point{{}}, suite)
	if err == nil {
		t.Fatal("invalid configuration did not produce an error")
	}
}

func TestFigure1Shape(t *testing.T) {
	r, err := Figure1(ctx(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	last := len(r.Windows) - 1
	// Larger windows tolerate latency (the paper's core observation).
	if r.ByLatency[1000][last] <= r.ByLatency[1000][0] {
		t.Errorf("window scaling did not help at 1000 cycles: %v", r.ByLatency[1000])
	}
	// Perfect L2 dominates every finite-latency series.
	for i := range r.Windows {
		if r.PerfectL2[i] < r.ByLatency[1000][i] {
			t.Errorf("window %d: perfect L2 (%.3f) below 1000-cycle (%.3f)",
				r.Windows[i], r.PerfectL2[i], r.ByLatency[1000][i])
		}
	}
	// Lower latency is never worse at the same window size.
	for i := range r.Windows {
		if r.ByLatency[100][i] < r.ByLatency[1000][i]*0.98 {
			t.Errorf("window %d: 100-cycle IPC below 1000-cycle", r.Windows[i])
		}
	}
	if !strings.Contains(r.String(), "Figure 1") {
		t.Error("rendering must identify the figure")
	}
}

func TestFigure7Shape(t *testing.T) {
	r, err := Figure7(ctx(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != len(Figure7Percentiles) {
		t.Fatalf("points = %d", len(r.Points))
	}
	// Percentile occupancies are non-decreasing.
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i].Inflight < r.Points[i-1].Inflight {
			t.Errorf("percentile occupancies must be monotone: %+v", r.Points)
		}
	}
	// The paper's observation: live instructions are a small minority
	// of in-flight instructions at the high percentiles.
	top := r.Points[len(r.Points)-1]
	live := top.BlockedLong + top.BlockedShort
	if top.Inflight > 0 && live > float64(top.Inflight) {
		t.Errorf("live (%.0f) cannot exceed in-flight (%d)", live, top.Inflight)
	}
	if r.PerBenchmark["stream"] == nil {
		t.Error("per-benchmark distributions missing")
	}
}

func TestFigure9And11Shape(t *testing.T) {
	r, err := Figure9(ctx(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// COoO must beat the small baseline and trail close behind the
	// unrealisable big one.
	best := r.IPC[2048][128]
	if best <= r.Baseline128IPC {
		t.Errorf("COoO 128/2048 (%.3f) must beat baseline-128 (%.3f)", best, r.Baseline128IPC)
	}
	if best > r.Baseline4096IPC*1.15 {
		t.Errorf("COoO 128/2048 (%.3f) implausibly above baseline-4096 (%.3f)", best, r.Baseline4096IPC)
	}
	// Bigger IQ never hurts at fixed SLIQ (within noise).
	for _, sliq := range r.SLIQs {
		if r.IPC[sliq][128] < r.IPC[sliq][32]*0.95 {
			t.Errorf("SLIQ %d: IQ scaling regressed: %v", sliq, r.IPC[sliq])
		}
	}
	// Figure 11: the COoO sustains far more in flight than baseline-128.
	if r.Inflight[2048][128] < 4*r.Baseline128Inflight {
		t.Errorf("COoO in-flight (%.0f) should dwarf baseline-128 (%.0f)",
			r.Inflight[2048][128], r.Baseline128Inflight)
	}
	if !strings.Contains(r.Figure11String(), "Figure 11") {
		t.Error("figure 11 rendering broken")
	}
}

func TestFigure10Shape(t *testing.T) {
	r, err := Figure10(ctx(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// The paper's point: near-total insensitivity to the wake delay.
	if slow := r.MaxSlowdown(); slow > 0.08 {
		t.Errorf("re-insertion delay slowdown %.1f%% too large (paper ~1%%)", 100*slow)
	}
	if !strings.Contains(r.String(), "Figure 10") {
		t.Error("rendering broken")
	}
}

func TestFigure12Shape(t *testing.T) {
	r, err := Figure12(ctx(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	b := r.Breakdown[2048][128]
	if b.Total() == 0 {
		t.Fatal("empty breakdown")
	}
	// Paper bands (loosely): stores ~10%, moved is the dominant
	// movable class, long-latency loads are a visible minority.
	if f := b.Fraction(stats.RetireStore); f < 0.04 || f > 0.2 {
		t.Errorf("store fraction %.2f outside [0.04, 0.2]", f)
	}
	if f := b.Fraction(stats.RetireMoved); f < 0.1 || f > 0.6 {
		t.Errorf("moved fraction %.2f outside [0.1, 0.6]", f)
	}
	if f := b.Fraction(stats.RetireLongLatLoad); f < 0.02 {
		t.Errorf("long-latency load fraction %.2f implausibly low", f)
	}
}

func TestFigure13Shape(t *testing.T) {
	r, err := Figure13(ctx(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// More checkpoints monotonically approach the limit (within noise).
	for i := 1; i < len(r.Checkpoints); i++ {
		a, b := r.IPC[r.Checkpoints[i-1]], r.IPC[r.Checkpoints[i]]
		if b < a*0.97 {
			t.Errorf("checkpoints %d -> %d regressed: %.3f -> %.3f",
				r.Checkpoints[i-1], r.Checkpoints[i], a, b)
		}
	}
	// 4 checkpoints must hurt more than 32.
	if r.Slowdown(4) < r.Slowdown(32) {
		t.Errorf("slowdown(4)=%.2f should exceed slowdown(32)=%.2f",
			r.Slowdown(4), r.Slowdown(32))
	}
}

func TestFigure14Shape(t *testing.T) {
	r, err := Figure14(ctx(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, lat := range r.Latencies {
		// More tags never hurt at fixed physical registers.
		if r.IPC[lat][2048][512] < r.IPC[lat][512][512]*0.95 {
			t.Errorf("lat %d: virtual tag scaling regressed", lat)
		}
		// The combined mechanism beats the 128-entry baseline.
		if r.IPC[lat][2048][512] <= r.Baseline128[lat] {
			t.Errorf("lat %d: combined mechanism (%.3f) not above baseline-128 (%.3f)",
				lat, r.IPC[lat][2048][512], r.Baseline128[lat])
		}
	}
}

func TestAblationCheckpointStrategy(t *testing.T) {
	r, err := AblationCheckpointStrategy(ctx(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Labels) != 6 {
		t.Fatalf("variants = %d", len(r.Labels))
	}
	// Coarse periodic windows must beat very fine ones (more in-flight
	// instructions per checkpoint slot).
	if r.IPC["periodic 512"] <= r.IPC["periodic 64"] {
		t.Errorf("coarser periodic checkpointing should win: %v", r.IPC)
	}
	if !strings.Contains(r.String(), "Ablation") {
		t.Error("rendering broken")
	}
}

func TestAblationWakeWidth(t *testing.T) {
	r, err := AblationWakeWidth(ctx(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Width 8 never loses to width 1 (more bandwidth can't hurt).
	if r.IPC["wake width 8/cycle"] < r.IPC["wake width 1/cycle"]*0.97 {
		t.Errorf("wider wake pump regressed: %v", r.IPC)
	}
}

func TestAblationMemoryPorts(t *testing.T) {
	r, err := AblationMemoryPorts(ctx(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if r.IPC["4 ports"] < r.IPC["1 ports"] {
		t.Errorf("more ports regressed: %v", r.IPC)
	}
	// One port must visibly throttle the load-heavy suite.
	if r.IPC["1 ports"] > r.IPC["2 ports"]*0.99 {
		t.Errorf("single port should cost something: %v", r.IPC)
	}
}

func TestAblationBranchPrediction(t *testing.T) {
	r, err := AblationBranchPrediction(ctx(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Perfect prediction never loses at equal pseudo-ROB size.
	if r.IPC["perfect, pseudo-ROB 128"] < r.IPC["gshare, pseudo-ROB 128"]*0.99 {
		t.Errorf("perfect prediction regressed: %v", r.IPC)
	}
}

func TestAblationPrefetch(t *testing.T) {
	r, err := AblationPrefetch(ctx(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Prefetching helps the small window...
	if r.IPC["baseline-128 + prefetch 8"] <= r.IPC["baseline-128"] {
		t.Errorf("prefetching should help streams: %v", r.IPC)
	}
	// ...but does not reach the kilo-instruction alternatives (the
	// introduction's claim).
	if r.IPC["baseline-128 + prefetch 8"] >= r.IPC["COoO-128/2048 (no prefetch)"] {
		t.Errorf("prefetch alone should not match the checkpointed window: %v", r.IPC)
	}
}

func TestAblationCommitPolicies(t *testing.T) {
	r, err := AblationCommitPolicies(ctx(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Labels) != 5 {
		t.Fatalf("variants = %d, want 5 (four policies + the 4096 baseline)", len(r.Labels))
	}
	for _, l := range r.Labels {
		if r.IPC[l] <= 0 {
			t.Errorf("%s: IPC %.3f", l, r.IPC[l])
		}
	}
	// The ordering the sweep exists to show: small baseline at the
	// bottom, the checkpointed policies well above it, the unbounded
	// oracle on top of everything (within noise).
	if r.IPC["checkpoint-128/2048"] <= r.IPC["rob-128"] {
		t.Errorf("checkpoint commit should beat the small baseline: %v", r.IPC)
	}
	if r.IPC["adaptive-128/2048"] <= r.IPC["rob-128"] {
		t.Errorf("adaptive commit should beat the small baseline: %v", r.IPC)
	}
	for _, l := range r.Labels {
		if r.IPC[l] > r.IPC["oracle-unbounded"]*1.02 {
			t.Errorf("%s (%.3f) above the oracle limit (%.3f)", l, r.IPC[l], r.IPC["oracle-unbounded"])
		}
	}

	// The -commit filter restricts the sweep and rejects empty matches.
	sub, err := AblationCommitPolicies(ctx(), quickOpts(), config.CommitOracle)
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Labels) != 1 || sub.Labels[0] != "oracle-unbounded" {
		t.Fatalf("filtered labels: %v", sub.Labels)
	}
	if _, err := AblationCommitPolicies(ctx(), quickOpts(), config.CommitMode("warp")); err == nil {
		t.Fatal("an unmatched filter must error, not run an empty sweep")
	}
}

// TestRecordFollowsSpecOrder: Options.Record hands a sweep's runs over
// in spec order whatever order the runner completes them in, and a
// sweep that fails midway still records the runs it finished, in spec
// order. Each fake result carries its spec index + 1 as Committed.
func TestRecordFollowsSpecOrder(t *testing.T) {
	reverse := func(_ context.Context, specs []sim.RunSpec, opt sim.Options) ([]stats.Results, error) {
		out := make([]stats.Results, len(specs))
		for i := len(specs) - 1; i >= 0; i-- {
			out[i] = stats.Results{Committed: uint64(i + 1)}
			opt.OnResult(specs[i], out[i])
		}
		return out, nil
	}
	// failing finishes every odd index, youngest first, then fails.
	failing := func(_ context.Context, specs []sim.RunSpec, opt sim.Options) ([]stats.Results, error) {
		for i := len(specs) - 1; i >= 0; i-- {
			if i%2 == 1 {
				opt.OnResult(specs[i], stats.Results{Committed: uint64(i + 1)})
			}
		}
		return nil, errors.New("worker lost")
	}
	// want lists every spec of the commit-policy ablation in spec order:
	// variant-major, then suite order.
	type rec struct {
		bench, config string
		committed     uint64
	}
	var want []rec
	for _, v := range commitPolicyVariants() {
		for _, b := range SuiteBenchmarks(42) {
			want = append(want, rec{b.Name, v.cfg.Summary(), uint64(len(want) + 1)})
		}
	}
	var oddWant []rec
	for i := 1; i < len(want); i += 2 {
		oddWant = append(oddWant, want[i])
	}

	for _, tc := range []struct {
		name   string
		runner func(context.Context, []sim.RunSpec, sim.Options) ([]stats.Results, error)
		want   []rec
	}{
		{"reverse", reverse, want},
		{"failing", failing, oddWant},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := quickOpts()
			opt.Runner = tc.runner
			var got []rec
			opt.Record = func(r RunRecord) {
				got = append(got, rec{r.Benchmark, r.Config, r.Results.Committed})
			}
			_, err := AblationCommitPolicies(ctx(), opt)
			if (err != nil) != (tc.name == "failing") {
				t.Fatalf("sweep error %v", err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("recorded %d runs, want %d", len(got), len(tc.want))
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("record %d is %+v, want %+v", i, got[i], tc.want[i])
				}
			}
		})
	}
}
