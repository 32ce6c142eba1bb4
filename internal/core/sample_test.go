package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/config"
	"repro/internal/isa/programs"
	"repro/internal/trace"
)

// TestSampledRunsPinned pins the result bytes of sampled runs under
// every commit policy plus a virtual-register machine, over a real
// program and a synthetic stream, with the clock skip on and off. The
// hashes were computed on the tree that folded each window into the run
// total with two counter walks (subtract the warmup snapshot, then merge
// the difference); the one-pass fold must reproduce every byte,
// including the per-window IPC sums and the policy counters' sum and
// maximum rules.
func TestSampledRunsPinned(t *testing.T) {
	want := map[string]string{
		"rob-128":                            "e02d69ab9d1b016a914948fbe0ef446b0d35226dbd61a51de87c4a6c4b133318",
		"checkpoint-64/512":                  "ec5fd96fbdba682a72acae9912754b4f34d9e70d13add0fea568d687cc35b0c9",
		"adaptive-64/512":                    "ebf5a68e989f83c929cdd3c5f66a427a9536ed9342c09e7963682dde2fa0963e",
		"oracle":                             "5959e831d93c938c6f0c7c5c9ea25be9536f2021ad3f79084e0d333d232a3854",
		"checkpoint-128/2048/tags512/phys65": "5aa2ce52ff82a686623969af966396d5171dff749e7c347e8d06f8f528e20921",
	}
	const budget = 100_000
	sample := trace.SampleSpec{Warmup: 500, Detail: 2000, Period: 10_000}
	isort, _ := programs.Lookup("isort")
	recipes := []trace.Recipe{
		{Kernel: trace.KernelProgram, Program: "isort", Input: isort.InputFor(budget), Seed: 42},
		{Kernel: trace.KernelFPMix, N: trace.LenFor(budget), Seed: 42},
	}
	for _, pc := range []struct {
		name string
		cfg  config.Config
	}{
		{"rob-128", config.BaselineSized(128)},
		{"checkpoint-64/512", config.CheckpointDefault(64, 512)},
		{"adaptive-64/512", config.AdaptiveDefault(64, 512)},
		{"oracle", config.OracleDefault()},
		{"checkpoint-128/2048/tags512/phys65", vregConfig(config.CheckpointDefault(128, 2048), 512, 65)},
	} {
		t.Run(pc.name, func(t *testing.T) {
			h := sha256.New()
			for _, r := range recipes {
				for _, disable := range []bool{true, false} {
					st, err := r.OpenStream()
					if err != nil {
						t.Fatal(err)
					}
					warm, err := r.OpenStream()
					if err != nil {
						t.Fatal(err)
					}
					res, err := RunSampled(pc.cfg, st, warm, sample, RunOptions{MaxInsts: budget, DisableSkip: disable})
					if err != nil {
						t.Fatal(err)
					}
					if res.Sampled == nil || res.Sampled.Windows < 2 {
						t.Fatalf("%s: sampled run measured too few windows: %+v", r, res.Sampled)
					}
					hashResults(t, h, res)
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != want[pc.name] {
				t.Errorf("result hash %s, want %s", got, want[pc.name])
			}
		})
	}
}
