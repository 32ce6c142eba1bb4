package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/config"
	"repro/internal/isa/programs"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// sampledBatch builds a small sampled batch: every registered program
// plus one beyond-the-materialisation-cap synthetic stream, under the
// two headline configurations.
func sampledBatch(t *testing.T) []Job {
	t.Helper()
	const budget = 60_000
	sample := trace.SampleSpec{Warmup: 500, Detail: 1500, Period: 10_000}
	var recipes []trace.Recipe
	for _, name := range programs.Names() {
		spec, ok := programs.Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) failed", name)
		}
		recipes = append(recipes, trace.Recipe{
			Kernel: trace.KernelProgram, Program: name,
			Input: spec.InputFor(budget), Seed: 42,
		})
	}
	// A synthetic stream sized beyond MaxRecipeInsts: only the sampled
	// path can run it at all, so its presence proves the scheduler
	// routes sampled points through StreamOnly, never Materialise.
	recipes = append(recipes, trace.Recipe{Kernel: trace.KernelStream, N: trace.MaxRecipeInsts + 1})

	var jobs []Job
	for _, cfg := range []config.Config{config.BaselineSized(128), config.CheckpointDefault(128, 2048)} {
		for _, r := range recipes {
			jobs = append(jobs, Job{
				Name: r.Kernel, Config: cfg, Trace: r,
				Insts: budget, Sample: sample,
			})
		}
	}
	return jobs
}

// TestSampledBatchColdThenWarm is the sampled points' service
// citizenship test: a sampled batch submitted twice through the daemon
// must replay entirely from the result cache — byte-identical raw wire
// results, zero simulator calls — and the sample spec must be visible
// in the job's wire form (it is part of the point's identity).
func TestSampledBatchColdThenWarm(t *testing.T) {
	cache, err := NewCache(0, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler(SchedulerOptions{Workers: 4, Cache: cache})
	var runs atomic.Int64
	sched.run = func(spec sim.RunSpec, donor *mem.Hierarchy) (stats.Results, error) {
		runs.Add(1)
		if !spec.Sample.Enabled() {
			t.Error("sampled job reached the runner without its sample spec")
		}
		return sim.Run(spec)
	}
	srv := httptest.NewServer(NewHandler(sched))
	defer srv.Close()
	client := &Client{BaseURL: srv.URL}
	ctx := context.Background()

	jobs := sampledBatch(t)

	// Wire form: the sample spec must round-trip through JSON, and a
	// non-sampled job must not grow a "sample" key (zero-drift).
	wire, err := json.Marshal(jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(wire), `"sample"`) {
		t.Errorf("sampled job wire form lacks the sample spec: %s", wire)
	}
	plain := jobs[0]
	plain.Sample = trace.SampleSpec{}
	if wire, err = json.Marshal(plain); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(wire), `"sample"`) {
		t.Errorf("non-sampled job wire form grew a sample key: %s", wire)
	}

	coldByIndex := make([]string, len(jobs))
	coldResults, err := client.Run(ctx, jobs, func(ev Event, _ *stats.Results) {
		if ev.Type == "result" {
			coldByIndex[ev.Index] = string(ev.Results)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != int64(len(jobs)) {
		t.Fatalf("cold run simulated %d points, want %d", got, len(jobs))
	}
	for i, res := range coldResults {
		if res.Sampled == nil {
			t.Fatalf("point %d returned no Sampled block", i)
		}
		if res.Sampled.Windows == 0 || res.Sampled.SampledInsts == 0 {
			t.Fatalf("point %d sampled degenerately: %+v", i, *res.Sampled)
		}
	}

	hits := 0
	warmByIndex := make([]string, len(jobs))
	if _, err = client.Run(ctx, jobs, func(ev Event, _ *stats.Results) {
		if ev.Type == "result" {
			warmByIndex[ev.Index] = string(ev.Results)
			if ev.Cached {
				hits++
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if hits != len(jobs) {
		t.Errorf("warm run had %d/%d cache hits, want all", hits, len(jobs))
	}
	if got := runs.Load(); got != int64(len(jobs)) {
		t.Errorf("warm run performed %d extra simulator calls", got-int64(len(jobs)))
	}
	for i := range jobs {
		if coldByIndex[i] == "" || coldByIndex[i] != warmByIndex[i] {
			t.Errorf("point %d: warm results not byte-identical to cold", i)
		}
	}
}

// TestSampledFingerprintDistinct pins the identity rule: a sampled
// point and its full-detail twin are different cache keys, while the
// non-sampled canonical string — and therefore every pre-existing
// fingerprint — is unchanged by the sampling extension.
func TestSampledFingerprintDistinct(t *testing.T) {
	r := trace.Recipe{Kernel: trace.KernelStream, N: 4096}
	full := Job{Config: config.Default(), Trace: r, Insts: 2000}
	sampled := full
	sampled.Sample = trace.SampleSpec{Warmup: 100, Detail: 400, Period: 1000}

	ffp, err := full.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	sfp, err := sampled.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if ffp == sfp {
		t.Fatal("sampled point aliases its full-detail twin")
	}
	if got := trace.PointString(r, trace.SampleSpec{}); got != r.String() {
		t.Fatalf("non-sampled PointString drifted: %q != %q", got, r.String())
	}
	want := r.String() + "/sample/w=100/d=400/p=1000"
	if got := trace.PointString(r, sampled.Sample); got != want {
		t.Fatalf("sampled PointString = %q, want %q", got, want)
	}
}

// TestSampledWarmUpsCountAsBuilds: sampled points fork their snapshot
// group's donor, so four sampled points of one recipe, warm shape and
// budget form one group, one warm build and three reuses, in the batch
// status and in ooosim_warm_builds_total.
func TestSampledWarmUpsCountAsBuilds(t *testing.T) {
	s := NewScheduler(SchedulerOptions{Workers: 2})
	r := trace.Recipe{Kernel: trace.KernelFPMix, N: 1 << 20, Seed: 42}
	var jobs []Job
	for _, iq := range []int{32, 64, 128, 256} {
		jobs = append(jobs, Job{
			Name: "fpmix", Config: config.CheckpointDefault(iq, 512), Trace: r,
			Insts: 20_000, Sample: trace.SampleSpec{Warmup: 200, Detail: 800, Period: 5000},
		})
	}
	b, err := s.Submit(jobs)
	if err != nil {
		t.Fatal(err)
	}
	st, err := b.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Errors) != 0 {
		t.Fatalf("errors: %v", st.Errors)
	}
	if st.SnapshotGroups != 1 || st.WarmBuilds != 1 || st.WarmReuses != 3 {
		t.Errorf("snapshot groups %d, warm builds/reuses %d/%d; want 1, 1/3",
			st.SnapshotGroups, st.WarmBuilds, st.WarmReuses)
	}
	var metrics bytes.Buffer
	s.WriteMetrics(&metrics)
	if !strings.Contains(metrics.String(), "\nooosim_warm_builds_total 1\n") {
		t.Errorf("/metrics does not count the one warm-up:\n%s", metrics.String())
	}
}

// TestSampledTwinSharesFullDetailDonor: a sampled job whose budget
// sizes its recipe (trace.LenFor(Insts) == N) forks its full-detail
// twin's donor, while the same sampled job at another budget warms a
// group of its own. Every result is sim.Run's, byte for byte.
func TestSampledTwinSharesFullDetailDonor(t *testing.T) {
	const insts = 20_000
	r := trace.Recipe{Kernel: trace.KernelFPMix, N: trace.LenFor(insts), Seed: 42}
	sample := trace.SampleSpec{Warmup: 200, Detail: 800, Period: 5000}
	full := Job{Name: "fpmix", Config: config.CheckpointDefault(64, 512), Trace: r, Insts: insts}
	twin := full
	twin.Sample = sample
	longer := twin
	longer.Insts = 2 * insts
	jobs := []Job{full, twin, longer}

	s := NewScheduler(SchedulerOptions{Workers: 2})
	b, err := s.Submit(jobs)
	if err != nil {
		t.Fatal(err)
	}
	st, err := b.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Errors) != 0 {
		t.Fatalf("errors: %v", st.Errors)
	}
	if st.SnapshotGroups != 2 || st.WarmBuilds != 2 || st.WarmReuses != 1 {
		t.Errorf("snapshot groups %d, warm builds/reuses %d/%d; want 2, 2/1",
			st.SnapshotGroups, st.WarmBuilds, st.WarmReuses)
	}
	for i, j := range jobs {
		tr, err := r.Materialise()
		if j.Sample.Enabled() {
			tr, err = trace.StreamOnly(r)
		}
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(sim.RunSpec{Name: j.label(), Config: j.Config, Trace: tr, Insts: j.Insts, Sample: j.Sample})
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(st.Results[i], want) {
			t.Errorf("job %d: result differs from sim.Run:\n%s\nvs\n%s", i, st.Results[i], want)
		}
	}
}
