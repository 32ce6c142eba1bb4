package sim

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/trace"
)

// TestSweepForkedMatchesColdAllPolicies is the sweep-level determinism
// contract of the snapshot-fork kernel: for every commit-policy family,
// the results a Sweep produces through forked warm donors (and shared
// worker arenas) are bit-equal to cold CPUs (core.New), which warm
// their own hierarchy. Run under -race in CI, which also exercises
// concurrent donor sharing.
func TestSweepForkedMatchesColdAllPolicies(t *testing.T) {
	const insts = 8000
	n := trace.LenFor(insts)
	traces := []*trace.Trace{
		trace.Stream(n),
		trace.FPMix(n, 42),
	}
	cfgs := []config.Config{
		config.BaselineSized(128),
		config.CheckpointDefault(32, 512),
		config.AdaptiveDefault(32, 512),
		config.OracleDefault(),
	}
	var specs []RunSpec
	for _, cfg := range cfgs {
		for _, tr := range traces {
			specs = append(specs, RunSpec{Name: tr.Name(), Config: cfg, Trace: tr, Insts: insts})
		}
	}

	swept, err := Sweep(context.Background(), specs, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		cpu, err := core.New(spec.Config, spec.Trace)
		if err != nil {
			t.Fatal(err)
		}
		if cold := cpu.Run(core.RunOptions{MaxInsts: spec.Insts}); !swept[i].Equal(cold) {
			t.Fatalf("spec %d (%s / %s): forked sweep result diverged from cold run:\n%+v\nvs\n%+v",
				i, spec.Name, spec.Config.Summary(), swept[i], cold)
		}
	}
}

// TestGroupSpecsClustersByWarmShape: the sweep groups specs by (trace,
// warm-relevant shape); timing-only differences share a group and
// geometry differences split one. The feed takes every group's first
// member before any group's second, while results indices stay
// untouched.
func TestGroupSpecsClustersByWarmShape(t *testing.T) {
	n := trace.LenFor(1000)
	trA, trB := trace.Stream(n), trace.Stencil(n)
	timing := config.BaselineSized(128)
	timing.MemoryLatency = 500 // timing only: same warm shape
	geom := config.BaselineSized(128)
	geom.L2.SizeBytes *= 2 // geometry: separate warm shape

	specs := []RunSpec{
		{Config: config.BaselineSized(128), Trace: trA},         // group 0
		{Config: config.BaselineSized(128), Trace: trB},         // group 1
		{Config: timing, Trace: trA},                            // group 0
		{Config: geom, Trace: trA},                              // group 2
		{Config: config.CheckpointDefault(64, 512), Trace: trA}, // group 0
	}
	bySpec, order := groupSpecs(specs)
	if bySpec[0] != bySpec[2] || bySpec[0] != bySpec[4] {
		t.Error("timing-only and policy-only differences must share a warm group")
	}
	if bySpec[0] == bySpec[1] {
		t.Error("different traces must split warm groups")
	}
	if bySpec[0] == bySpec[3] {
		t.Error("different cache geometries must split warm groups")
	}
	want := []int{0, 1, 3, 2, 4} // first members in group order, then second members, then third
	if len(order) != len(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

// TestWarmGroupFor pins the one identity of a snapshot group: what
// shares a donor and what splits one. Where a sampled point shares its
// full-detail twin's group, the donor it warms from a fresh recipe
// stream is the twin's, warmed from the materialised trace.
func TestWarmGroupFor(t *testing.T) {
	const insts = 5000
	synth := trace.Recipe{Kernel: trace.KernelFPMix, N: trace.LenFor(insts), Seed: 42}
	program := programRecipe(t, "isort", insts)
	sample := trace.SampleSpec{Warmup: 200, Detail: 800, Period: 2000}
	type point struct {
		r      trace.Recipe
		cfg    config.Config
		insts  uint64
		sample trace.SampleSpec
	}
	base := config.CheckpointDefault(64, 512)
	latency := base
	latency.DL1.LatencyCycles++
	latency.L2.LatencyCycles *= 2
	latency.MemoryLatency = 1000
	geometry := base
	geometry.L2.SizeBytes *= 2
	perfect := base
	perfect.PerfectL2 = true
	full := point{synth, base, insts, trace.SampleSpec{}}
	for _, c := range []struct {
		name string
		a, b point
		same bool
	}{
		{"latencies only", full, point{synth, latency, insts, trace.SampleSpec{}}, true},
		{"window and policy", full, point{synth, config.BaselineSized(128), insts, trace.SampleSpec{}}, true},
		{"cache geometry", full, point{synth, geometry, insts, trace.SampleSpec{}}, false},
		{"perfect L2", full, point{synth, perfect, insts, trace.SampleSpec{}}, false},
		{"recipe", full, point{trace.Recipe{Kernel: trace.KernelStream, N: synth.N}, base, insts, trace.SampleSpec{}}, false},
		{"sampled synthetic twin", full, point{synth, base, insts, sample}, true},
		{"sampled synthetic at another budget", point{synth, base, insts, sample}, point{synth, base, 2 * insts, sample}, false},
		{"sampled program twin", point{program, base, insts, trace.SampleSpec{}}, point{program, base, 2 * insts, sample}, true},
	} {
		ga := WarmGroupFor(c.a.r, c.a.cfg, c.a.insts, c.a.sample)
		gb := WarmGroupFor(c.b.r, c.b.cfg, c.b.insts, c.b.sample)
		if (ga == gb) != c.same {
			t.Errorf("%s: groups %+v and %+v, want same=%v", c.name, ga, gb, c.same)
			continue
		}
		if !c.same || c.a.sample.Enabled() || !c.b.sample.Enabled() {
			continue
		}
		tr, err := c.a.r.Materialise()
		if err != nil {
			t.Fatal(err)
		}
		fromTrace, err := ga.WarmDonor(tr)
		if err != nil {
			t.Fatal(err)
		}
		fromStream, err := gb.WarmDonor(nil)
		if err != nil {
			t.Fatal(err)
		}
		var x, y bytes.Buffer
		if err := fromTrace.WriteSnapshot(&x); err != nil {
			t.Fatal(err)
		}
		if err := fromStream.WriteSnapshot(&y); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(x.Bytes(), y.Bytes()) {
			t.Errorf("%s: the sampled point's donor differs from its full-detail twin's", c.name)
		}
	}
}
