package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/config"
	"repro/internal/isa/programs"
	"repro/internal/trace"
)

// testSample is the accuracy-harness sampling regime: a 400k budget at
// 50k periods gives 8 windows — enough for a meaningful CLT interval at
// a pace the race detector tolerates.
var testSample = trace.SampleSpec{Warmup: 2000, Detail: 8000, Period: 50_000}

const testSampleBudget = 400_000

func programRecipe(t *testing.T, name string, budget uint64) trace.Recipe {
	t.Helper()
	spec, ok := programs.Lookup(name)
	if !ok {
		t.Fatalf("unknown program %q", name)
	}
	return trace.Recipe{Kernel: trace.KernelProgram, Program: name, Input: spec.InputFor(budget), Seed: 42}
}

// TestSampledAccuracy is the sampling accuracy harness: for every
// registered program under both a conventional ROB baseline and the
// checkpointed COoO machine, the sampled run's 95% confidence interval
// must cover the full-detail IPC at the same budget. This is the
// statistical contract sampled figures rest on — if it breaks, either
// the functional warming lost state the windows depend on, or the
// window protocol is biased.
func TestSampledAccuracy(t *testing.T) {
	cfgs := []struct {
		label string
		cfg   config.Config
	}{
		{"rob-128", config.BaselineSized(128)},
		{"checkpoint-128/2048", config.CheckpointDefault(128, 2048)},
	}
	for _, name := range programs.Names() {
		for _, c := range cfgs {
			t.Run(name+"/"+c.label, func(t *testing.T) {
				r := programRecipe(t, name, testSampleBudget)
				tr, err := r.Materialise()
				if err != nil {
					t.Fatalf("Materialise: %v", err)
				}
				full, err := Run(RunSpec{Name: name, Config: c.cfg, Trace: tr, Insts: testSampleBudget})
				if err != nil {
					t.Fatalf("full run: %v", err)
				}
				handle, err := trace.StreamOnly(r)
				if err != nil {
					t.Fatalf("StreamOnly: %v", err)
				}
				sampled, err := Run(RunSpec{
					Name: name, Config: c.cfg, Trace: handle,
					Insts: testSampleBudget, Sample: testSample,
				})
				if err != nil {
					t.Fatalf("sampled run: %v", err)
				}
				s := sampled.Sampled
				if s == nil {
					t.Fatal("sampled run returned no Sampled block")
				}
				if s.Windows < 4 {
					t.Fatalf("only %d windows; the harness needs enough for a CI", s.Windows)
				}
				if s.SampledInsts == 0 || s.FastForwardInsts == 0 {
					t.Fatalf("degenerate sampling: %+v", *s)
				}
				gap := math.Abs(full.IPC() - s.IPCMean())
				if ci := s.IPCCI95(); gap > ci {
					t.Errorf("sampled IPC %.4f ± %.4f misses full-detail IPC %.4f (gap %.4f)",
						s.IPCMean(), ci, full.IPC(), gap)
				}
			})
		}
	}
}

// TestSampledDeterministic pins the service contract: two sampled runs
// of one point are byte-identically equal, so cached sampled results
// can answer replays.
func TestSampledDeterministic(t *testing.T) {
	r := programRecipe(t, "isort", 100_000)
	run := func() string {
		handle, err := trace.StreamOnly(r)
		if err != nil {
			t.Fatalf("StreamOnly: %v", err)
		}
		res, err := Run(RunSpec{
			Name: "isort", Config: config.CheckpointDefault(128, 2048), Trace: handle,
			Insts: 100_000, Sample: trace.SampleSpec{Warmup: 500, Detail: 2000, Period: 10_000},
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("sampled runs diverge:\n%s\nvs\n%s", a, b)
	}
}

// TestSweepSampledMatchesRuns: a Sweep of sampled points, which fork
// their warm group's one donor, returns for every point the bytes its
// standalone Run returns from a private donor. Two configurations read
// separate recipe-only handles of the same recipes (a program and a
// synthetic kernel), so the groups key on the recipe, and the synthetic
// recipe runs at a second budget, whose donor warms further. Run under
// -race in CI, which also exercises concurrent forks of one donor.
func TestSweepSampledMatchesRuns(t *testing.T) {
	const budget = 40_000
	sample := trace.SampleSpec{Warmup: 500, Detail: 2000, Period: 10_000}
	points := []struct {
		r     trace.Recipe
		insts uint64
	}{
		{programRecipe(t, "isort", budget), budget},
		{trace.Recipe{Kernel: trace.KernelFPMix, N: trace.LenFor(2 * budget), Seed: 42}, budget},
		{trace.Recipe{Kernel: trace.KernelFPMix, N: trace.LenFor(2 * budget), Seed: 42}, 2 * budget},
	}
	var specs []RunSpec
	for _, cfg := range []config.Config{config.BaselineSized(128), config.CheckpointDefault(128, 2048)} {
		for _, p := range points {
			handle, err := trace.StreamOnly(p.r)
			if err != nil {
				t.Fatal(err)
			}
			specs = append(specs, RunSpec{Name: handle.Name(), Config: cfg, Trace: handle, Insts: p.insts, Sample: sample})
		}
	}
	if bySpec, _ := groupSpecs(specs); bySpec[0] != bySpec[len(points)] {
		t.Fatal("two handles of one recipe must share a warm group")
	}

	swept, err := Sweep(context.Background(), specs, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		alone, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		a, err := json.Marshal(alone)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(swept[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("spec %d (%s / %s, %d insts): swept result differs from its own run:\n%s\nvs\n%s",
				i, spec.Name, spec.Config.Summary(), spec.Insts, b, a)
		}
	}
}

// TestGroupSpecsSampledPrograms: the sampled-programs benchmark's ten
// points, two configurations over a separate recipe-only handle of each
// of five programs, fall into five warm groups, and the feed takes
// every group's first member before any group's second. A synthetic
// recipe sampled at two budgets warms two donors.
func TestGroupSpecsSampledPrograms(t *testing.T) {
	const budget = 1_000_000
	handle := func(r trace.Recipe) *trace.Trace {
		tr, err := trace.StreamOnly(r)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	var specs []RunSpec
	for _, cfg := range []config.Config{config.BaselineSized(128), config.CheckpointDefault(128, 2048)} {
		for _, name := range programs.Names() {
			specs = append(specs, RunSpec{
				Name: name, Config: cfg, Trace: handle(programRecipe(t, name, budget)),
				Insts: budget, Sample: trace.DefaultSample(),
			})
		}
	}
	if len(specs) != 10 {
		t.Fatalf("%d specs, want 10", len(specs))
	}
	bySpec, order := groupSpecs(specs)
	first := map[sweepGroup]int{} // group -> feed position of its first member
	for pos, i := range order {
		if _, ok := first[bySpec[i]]; !ok {
			first[bySpec[i]] = pos
		}
	}
	if len(first) != 5 {
		t.Fatalf("%d warm groups, want 5 (one per program)", len(first))
	}
	for pos := range len(first) {
		if first[bySpec[order[pos]]] != pos {
			t.Fatalf("feed order %v: position %d repeats a group before every group has started", order, pos)
		}
	}

	synth := trace.Recipe{Kernel: trace.KernelFPMix, N: trace.LenFor(budget), Seed: 42}
	cfg := config.CheckpointDefault(128, 2048)
	budgets, _ := groupSpecs([]RunSpec{
		{Config: cfg, Trace: handle(synth), Insts: budget / 2, Sample: trace.DefaultSample()},
		{Config: cfg, Trace: handle(synth), Insts: budget, Sample: trace.DefaultSample()},
	})
	if budgets[0] == budgets[1] {
		t.Fatal("one synthetic recipe sampled at two budgets must warm two donors")
	}
}
