package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/isa/programs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// programQuickOpts keeps the program sweeps fast: InputFor sizes each
// program's input so its dynamic stream lands near this budget.
func programQuickOpts() Options {
	return Options{Insts: 20_000, Seed: 42}
}

func TestProgramSuiteBuilds(t *testing.T) {
	names := programs.Names()
	if len(names) < 4 {
		t.Fatalf("program suite too small: %v", names)
	}
	opt := programQuickOpts().withDefaults()
	suite, err := opt.programSuite()
	if err != nil {
		t.Fatal(err)
	}
	if len(suite) != len(names) {
		t.Fatalf("suite has %d members, want %d", len(suite), len(names))
	}
	for i, st := range suite {
		if st.name != names[i] {
			t.Errorf("member %d is %q, want %q", i, st.name, names[i])
		}
		if st.tr.Len() == 0 {
			t.Errorf("%s: empty trace", st.name)
		}
		if st.tr.Code() == nil {
			t.Errorf("%s: program trace exposes no static code", st.name)
		}
		if err := st.tr.Validate(); err != nil {
			t.Errorf("%s: %v", st.name, err)
		}
	}

	// The trace cache must keep the program and synthetic suites
	// disjoint while sharing each across calls.
	cached := programQuickOpts().WithTraceCache()
	a, err := cached.programSuite()
	if err != nil {
		t.Fatal(err)
	}
	b, err := cached.programSuite()
	if err != nil {
		t.Fatal(err)
	}
	if a[0].tr != b[0].tr {
		t.Error("program suite regenerated instead of cached")
	}
	syn, err := cached.suite()
	if err != nil {
		t.Fatal(err)
	}
	if syn[0].tr == a[0].tr {
		t.Error("synthetic and program suites alias in the cache")
	}

	if _, err := ProgramRecipe("quicksort", 1000, 42); err == nil {
		t.Error("ProgramRecipe accepted an unknown program")
	}
}

// TestFigure9ProgramsShape runs the program figure-9 grid cold through
// sim.Sweep and checks the same qualitative shape as the synthetic
// variant plus the program-only observability: every recorded result
// carries nonzero BTB and LSQ counters.
func TestFigure9ProgramsShape(t *testing.T) {
	opt := programQuickOpts()
	var records []RunRecord
	opt.Record = func(rec RunRecord) { records = append(records, rec) }
	r, err := Figure9Programs(ctx(), withIdentityChecks(t, opt))
	if err != nil {
		t.Fatal(err)
	}
	if r.Suite != "program" {
		t.Errorf("Suite = %q", r.Suite)
	}
	if r.IPC[2048][128] <= 0 || r.Baseline128IPC <= 0 {
		t.Fatalf("degenerate IPCs: %+v", r.IPC)
	}
	// The program kernels are cache-resident integer codes, not the
	// latency-wall FP streams the paper's headline depends on, so the
	// kilo-instruction window buys little here and checkpointed commit
	// may trail the ROB baseline slightly (rollback replay has a cost
	// and there are no 1000-cycle misses to hide). What the grid must
	// show: no configuration collapses, and the two baselines agree
	// (window size is irrelevant without memory stalls — the very
	// contrast that makes the synthetic suite's +200% meaningful).
	if r.IPC[2048][128] < 0.6*r.Baseline128IPC {
		t.Errorf("COoO 128/2048 (%.3f) collapsed against baseline-128 (%.3f)",
			r.IPC[2048][128], r.Baseline128IPC)
	}
	if r.Baseline4096IPC < r.Baseline128IPC*0.98 {
		t.Errorf("bigger ROB regressed on cache-resident programs: %.3f vs %.3f",
			r.Baseline4096IPC, r.Baseline128IPC)
	}
	for _, s := range []string{r.String(), r.Figure11String()} {
		if !strings.Contains(s, "program suite") {
			t.Errorf("program rendering must be distinguishable from the synthetic figure:\n%s", s)
		}
	}

	if len(records) == 0 {
		t.Fatal("Record hook never fired")
	}
	for _, rec := range records {
		if rec.Results.BTB == nil || rec.Results.BTB.Lookups == 0 {
			t.Fatalf("%s/%s: program run recorded no BTB activity", rec.Benchmark, rec.Config)
		}
		if rec.Results.LSQ == nil || rec.Results.LSQ.Loads == 0 {
			t.Fatalf("%s/%s: program run recorded no LSQ activity", rec.Benchmark, rec.Config)
		}
	}
}

// TestAblationCommitPoliciesPrograms: on cache-resident integer
// programs the window-size story flattens (see TestFigure9ProgramsShape),
// but the oracle must still bound every policy and no policy may
// collapse.
func TestAblationCommitPoliciesPrograms(t *testing.T) {
	r, err := AblationCommitPoliciesPrograms(ctx(), withIdentityChecks(t, programQuickOpts()))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Labels) != 5 {
		t.Fatalf("variants = %d", len(r.Labels))
	}
	if !strings.Contains(r.Title, "program suite") {
		t.Errorf("title %q must name the suite", r.Title)
	}
	for _, l := range r.Labels {
		if r.IPC[l] <= 0 {
			t.Errorf("%s: IPC %.3f", l, r.IPC[l])
		}
		if r.IPC[l] > r.IPC["oracle-unbounded"]*1.02 {
			t.Errorf("%s (%.3f) above the oracle limit (%.3f)", l, r.IPC[l], r.IPC["oracle-unbounded"])
		}
		if r.IPC[l] < 0.6*r.IPC["oracle-unbounded"] {
			t.Errorf("%s (%.3f) collapsed against the oracle (%.3f)", l, r.IPC[l], r.IPC["oracle-unbounded"])
		}
	}
}

// TestProgramRemoteSuiteSkipsMaterialisation mirrors the synthetic
// remote contract: with a Runner installed the program suite ships
// recipe-only traces.
func TestProgramRemoteSuiteSkipsMaterialisation(t *testing.T) {
	opt := programQuickOpts()
	opt.Runner = func(_ context.Context, _ []sim.RunSpec, _ sim.Options) ([]stats.Results, error) {
		return nil, nil
	}
	opt = opt.withDefaults()
	suite, err := opt.programSuite()
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range suite {
		if st.tr.Len() != 0 {
			t.Errorf("%s: remote program suite materialised %d instructions", st.name, st.tr.Len())
		}
		r, ok := st.tr.Recipe()
		if !ok {
			t.Errorf("%s: no recipe", st.name)
			continue
		}
		if r.Kernel != "program" || r.Program != st.name {
			t.Errorf("%s: recipe %+v", st.name, r)
		}
	}
}
