package sim

import (
	"context"
	"testing"

	"repro/internal/config"
	"repro/internal/trace"
)

// TestSweepForkedMatchesColdAllPolicies is the sweep-level determinism
// contract of the snapshot-fork kernel: for every commit-policy family,
// the results a Sweep produces through forked warm donors (and shared
// worker arenas) are bit-equal to cold, standalone Run calls. Run under
// -race in CI, which also exercises concurrent donor sharing.
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
		cold, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !swept[i].Equal(cold) {
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
