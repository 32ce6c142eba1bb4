package experiments

import (
	"context"
	"os"
	"strings"
	"testing"
)

// goldenOpts is the short figure-9 configuration pinned by the golden
// file: small enough to run in well under a second, large enough that
// every mechanism under study (SLIQ moves, rollbacks, kilo-instruction
// windows) is exercised.
var goldenOpts = Options{Insts: 3000, Seed: 42, Workers: 1}

func renderFigure9(t *testing.T) string {
	t.Helper()
	r, err := Figure9(context.Background(), withIdentityChecks(t, goldenOpts))
	if err != nil {
		t.Fatal(err)
	}
	return r.String() + r.Figure11String()
}

// TestFigure9Golden pins a short figure-9 run byte-for-byte against
// testdata/figure9_golden.txt, which was recorded before the PR-3
// hot-path overhaul (DynInst pooling, intrusive issue queues, indexed
// LSQ disambiguation, precomputed warm-up footprints): the optimised
// simulator must remain bit-equal to the original, not merely close.
// Regenerate with GEN_GOLDEN=1 only for a change that is *supposed* to
// alter simulated behaviour, and say so in the commit.
func TestFigure9Golden(t *testing.T) {
	const path = "testdata/figure9_golden.txt"
	if os.Getenv("GEN_GOLDEN") != "" {
		got := renderFigure9(t)
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := renderFigure9(t)
	if got == string(want) {
		return
	}
	// Pinpoint the first divergent line for a readable failure.
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		g, w := "", ""
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("figure 9 output diverged from the pre-pooling golden at line %d:\n got: %q\nwant: %q",
				i+1, g, w)
		}
	}
	t.Fatal("figure 9 output diverged from the golden (length only?)")
}

// TestFigure9GoldenParallelWorkers reruns the pinned configuration with
// a parallel worker pool: results must match the golden byte-for-byte
// regardless of scheduling, proving the per-CPU record pools and the
// shared warm-up footprint do not leak across concurrent points.
func TestFigure9GoldenParallelWorkers(t *testing.T) {
	want, err := os.ReadFile("testdata/figure9_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	opt := withIdentityChecks(t, goldenOpts)
	opt.Workers = 8
	r, err := Figure9(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.String() + r.Figure11String(); got != string(want) {
		t.Fatalf("parallel sweep diverged from the golden:\n%s", got)
	}
}

// withIdentityChecks returns opt with a Record hook that checks the
// counter identities (stats.Results.CheckIdentities) on every run the
// figure makes, before any hook opt already had.
func withIdentityChecks(t *testing.T, opt Options) Options {
	t.Helper()
	next := opt.Record
	opt.Record = func(rec RunRecord) {
		if err := rec.Results.CheckIdentities(); err != nil {
			t.Errorf("%s / %s: %v", rec.Benchmark, rec.Config, err)
		}
		if next != nil {
			next(rec)
		}
	}
	return opt
}
