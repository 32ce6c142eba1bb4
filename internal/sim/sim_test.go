package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/stats"
	"repro/internal/trace"
)

const testInsts = 4_000

// figure7Grid builds a small figure-7-shaped spec list: one occupancy-
// collecting configuration crossed with the suite workloads, plus a
// couple of COoO points, all sharing traces across specs.
func figure7Grid() []RunSpec {
	n := trace.LenFor(testInsts)
	traces := []*trace.Trace{
		trace.Stream(n),
		trace.Stencil(n),
		trace.FPMix(n, 42),
	}
	base := config.BaselineSized(256)
	base.MemoryLatency = 500
	cooo := config.CheckpointDefault(64, 512)

	var specs []RunSpec
	for _, cfg := range []config.Config{base, cooo} {
		for _, tr := range traces {
			specs = append(specs, RunSpec{
				Name:             tr.Name(),
				Config:           cfg,
				Trace:            tr,
				Insts:            testInsts,
				CollectOccupancy: true,
			})
		}
	}
	return specs
}

// TestSweepDeterminism is the engine's core contract: the same specs
// produce byte-identical results regardless of the worker count.
func TestSweepDeterminism(t *testing.T) {
	specs := figure7Grid()
	serial, err := Sweep(context.Background(), specs, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Sweep(context.Background(), specs, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	a, err := json.Marshal(serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("Workers=1 and Workers=8 results differ:\n%s\n---\n%s", a, b)
	}
}

// TestSweepSharedTraceConcurrency runs many CPUs over one shared trace
// at full parallelism; the race detector (CI runs go test -race)
// verifies the trace really is consumed read-only.
func TestSweepSharedTraceConcurrency(t *testing.T) {
	n := trace.LenFor(testInsts)
	tr := trace.FPMix(n, 7)
	var specs []RunSpec
	for i := 0; i < 8; i++ {
		specs = append(specs, RunSpec{
			Name:   tr.Name(),
			Config: config.CheckpointDefault(64, 512),
			Trace:  tr,
			Insts:  testInsts,
		})
	}
	results, err := Sweep(context.Background(), specs, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Committed != results[0].Committed || r.Cycles != results[0].Cycles {
			t.Errorf("run %d diverged on the shared trace: %v vs %v", i, r, results[0])
		}
	}
}

// TestSweepOrder checks results[i] corresponds to specs[i] even when
// completion order scrambles under parallelism: each spec gets a
// distinct instruction budget that must come back in its slot.
func TestSweepOrder(t *testing.T) {
	n := trace.LenFor(testInsts)
	tr := trace.Stream(n)
	budgets := []uint64{1000, 2000, 3000, 4000, 1500, 2500}
	var specs []RunSpec
	for _, b := range budgets {
		specs = append(specs, RunSpec{Name: tr.Name(), Config: config.BaselineSized(128), Trace: tr, Insts: b})
	}
	results, err := Sweep(context.Background(), specs, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	// The core may overshoot the budget by up to one commit group, so
	// match each slot to its budget with a small tolerance.
	for i, b := range budgets {
		got := results[i].Committed
		if got < b || got > b+16 {
			t.Errorf("slot %d: committed %d, want ~%d", i, got, b)
		}
	}
}

// TestSweepErrorPropagation checks a failing spec surfaces as a labelled
// error (no panic) and poisons the whole sweep. The second case puts an
// oversized SLIQ in a ladder above a SLIQ that never fills: it must fail
// validation as its own run would, not take the smaller run's result.
func TestSweepErrorPropagation(t *testing.T) {
	n := trace.LenFor(testInsts)
	tr := trace.Stream(n)
	good := RunSpec{Name: "good", Config: config.BaselineSized(128), Trace: tr, Insts: 1000}
	clean := RunSpec{Name: "ladder", Config: config.CheckpointDefault(32, 64), Trace: tr, Insts: 1000}
	if _, refused, err := runSpec(clean, nil, nil); err != nil || refused {
		t.Fatalf("SLIQ 64 run: refused %v, err %v; the ladder case needs a clean run", refused, err)
	}
	oversized := clean
	oversized.Config.SLIQEntries = 1<<16 + 1
	for _, tc := range []struct {
		bad     string // what the error must name
		specs   []RunSpec
		workers int
	}{
		{"bad", []RunSpec{good, {Name: "bad", Config: config.Config{}, Trace: tr, Insts: 1000}}, 2},
		// One worker and two tasks, so the ladder forms.
		{oversized.Config.Summary(), []RunSpec{good, oversized, clean}, 1},
	} {
		_, err := Sweep(context.Background(), tc.specs, Options{Workers: tc.workers})
		if err == nil {
			t.Errorf("%s: invalid configuration did not fail the sweep", tc.bad)
			continue
		}
		if !strings.Contains(err.Error(), tc.bad) {
			t.Errorf("error %q does not name the failing spec %s", err, tc.bad)
		}
	}
}

// TestRunRecoversPanics checks simulator panics become errors: a worker
// pool must survive one bad point.
func TestRunRecoversPanics(t *testing.T) {
	_, err := Run(RunSpec{Name: "nil-trace", Config: config.BaselineSized(128)})
	if err == nil {
		t.Fatal("nil trace must produce an error")
	}
}

// TestSweepCancellation checks a cancelled context stops the sweep with
// the context's error.
func TestSweepCancellation(t *testing.T) {
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	n := trace.LenFor(testInsts)
	tr := trace.Stream(n)
	specs := []RunSpec{{Name: "x", Config: config.BaselineSized(128), Trace: tr, Insts: 1000}}
	_, err := Sweep(cctx, specs, Options{Workers: 2})
	if err == nil {
		t.Fatal("cancelled context did not stop the sweep")
	}
}

// TestSweepProgressAndOnResult checks the callbacks fire once per run
// and that Progress counts completions monotonically up to the total.
func TestSweepProgressAndOnResult(t *testing.T) {
	specs := figure7Grid()
	var lines, records, lastDone int
	_, err := Sweep(context.Background(), specs, Options{
		Workers: 4,
		Progress: func(done, total int, line string) {
			lines++
			if total != len(specs) {
				t.Errorf("progress total %d, want %d", total, len(specs))
			}
			if done != lastDone+1 {
				t.Errorf("progress done %d after %d, want monotone +1", done, lastDone)
			}
			lastDone = done
		},
		OnResult: func(RunSpec, stats.Results) { records++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if lines != len(specs) || records != len(specs) {
		t.Errorf("callbacks fired %d/%d times, want %d each", lines, records, len(specs))
	}
	if lastDone != len(specs) {
		t.Errorf("final done count %d, want %d", lastDone, len(specs))
	}
}
