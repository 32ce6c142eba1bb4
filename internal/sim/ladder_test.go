package sim

import (
	"context"
	"slices"
	"testing"

	"repro/internal/config"
	"repro/internal/stats"
	"repro/internal/trace"
)

// TestSweepLaddersMatchRuns is the exactness contract of SLIQ ladders:
// every result a Sweep produces, simulated or reused from a smaller
// SLIQ's clean run, equals an independent Run of its spec and satisfies
// the counter identities (stats.Results.CheckIdentities). At IQ 32 and
// 20k instructions, stream, stencil and blocked fill an 8-entry SLIQ and
// run differently with 64 entries, so each {8, 64, 2048} ladder takes
// both branches of the rule: SLIQ 8 refuses and forces 64 to simulate,
// and 64's clean run is reused for 2048. The members are listed largest
// first so the sweep must sort them.
func TestSweepLaddersMatchRuns(t *testing.T) {
	const insts = 20_000
	n := trace.LenFor(insts)
	stream := trace.Stream(n)
	// Each ladder is three consecutive specs in this order.
	sliqs := []int{2048, 8, 64}
	const big, small, mid = 0, 1, 2
	var specs []RunSpec
	add := func(tr *trace.Trace, occ bool, mk func(iq, sliq int) config.Config) {
		for _, s := range sliqs {
			specs = append(specs, RunSpec{Name: tr.Name(), Config: mk(32, s), Trace: tr, Insts: insts, CollectOccupancy: occ})
		}
	}
	for _, tr := range []*trace.Trace{stream, trace.Stencil(n), trace.Blocked(n)} {
		add(tr, false, config.CheckpointDefault)
	}
	add(stream, false, config.AdaptiveDefault)
	add(stream, true, config.CheckpointDefault)
	specs = append(specs, RunSpec{Name: stream.Name(), Config: config.BaselineSized(128), Trace: stream, Insts: insts})

	var delivered int
	swept, err := Sweep(context.Background(), specs, Options{
		Workers:  2,
		OnResult: func(RunSpec, stats.Results) { delivered++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if delivered != len(specs) {
		t.Errorf("OnResult fired %d times, want %d", delivered, len(specs))
	}

	refused := make([]bool, len(specs))
	for i, spec := range specs {
		var ref stats.Results
		ref, refused[i], err = runSpec(spec, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := swept[i].CheckIdentities(); err != nil {
			t.Errorf("spec %d: %v", i, err)
		}
		if !swept[i].Equal(ref) {
			t.Errorf("spec %d (%s / %s): swept result differs from its own run:\n%+v\nvs\n%+v",
				i, spec.Name, spec.Config.Summary(), swept[i], ref)
		}
	}

	// Both branches of the rule: in each ladder SLIQ 8 refused and 64
	// did not, so 64 was simulated and 2048 reused.
	ladders := len(specs) / len(sliqs) // the trailing ROB spec is not one
	for l := 0; l < ladders*len(sliqs); l += len(sliqs) {
		name := specs[l].Name + " / " + specs[l+small].Config.Summary()
		if !refused[l+small] || refused[l+mid] {
			t.Errorf("%s: SLIQ 8 refused %v, SLIQ 64 refused %v; want true, false", name, refused[l+small], refused[l+mid])
		}
		if swept[l+small].Equal(swept[l+mid]) {
			t.Errorf("%s: SLIQ 8 and 64 read the same result; the ladder no longer takes the simulate branch", name)
		}
	}
	// The occupancy ladder, the last one, shows the sweep's choice
	// itself: a reused result shares its Occ histogram with the run it
	// copies.
	occ := (ladders - 1) * len(sliqs)
	if swept[occ+big].Occ != swept[occ+mid].Occ {
		t.Error("SLIQ 2048 did not reuse SLIQ 64's clean run")
	}
	if swept[occ+small].Occ == swept[occ+mid].Occ {
		t.Error("SLIQ 64 reused SLIQ 8's run although SLIQ 8 refused")
	}
}

// TestLadderTasks pins the task split and feed order: specs that differ
// only in their SLIQ size form one task, smallest SLIQ first; SLIQ 0,
// sampled specs and specs that differ in anything else stay apart;
// longer tasks come first and ties keep the given order. A pool with a
// worker for every such task runs every spec on its own instead.
func TestLadderTasks(t *testing.T) {
	tr := trace.Stream(trace.LenFor(1000))
	spec := func(sliq int) RunSpec {
		return RunSpec{Name: "s", Config: config.CheckpointDefault(32, sliq), Trace: tr, Insts: 1000}
	}
	sampled := spec(512)
	sampled.Sample = trace.SampleSpec{Warmup: 10, Detail: 10, Period: 100}
	budget := spec(1024)
	budget.Insts = 2000
	occ := spec(1024)
	occ.CollectOccupancy = true
	specs := []RunSpec{
		{Name: "rob", Config: config.BaselineSized(128), Trace: tr, Insts: 1000},
		spec(2048),
		spec(0),
		sampled,
		budget,
		spec(512),
		occ,
		spec(1024),
		spec(64),
		budget,
		spec(1024),
	}
	order := make([]int, len(specs))
	for i := range order {
		order[i] = i
	}
	want := [][]int{{8, 5, 7, 10, 1}, {4, 9}, {0}, {2}, {3}, {6}}
	for _, workers := range []int{1, len(want) - 1} {
		if got := ladderTasks(specs, order, workers); !slices.EqualFunc(got, want, slices.Equal[[]int]) {
			t.Errorf("%d workers: ladderTasks = %v, want %v", workers, got, want)
		}
	}
	var alone [][]int
	for _, i := range order {
		alone = append(alone, []int{i})
	}
	for _, workers := range []int{len(want), len(specs)} {
		if got := ladderTasks(specs, order, workers); !slices.EqualFunc(got, alone, slices.Equal[[]int]) {
			t.Errorf("%d workers: ladderTasks = %v, want every spec alone", workers, got)
		}
	}
}
