package core

import (
	"bytes"
	"testing"

	"repro/internal/config"
	"repro/internal/isa/programs"
	"repro/internal/mem"
	"repro/internal/trace"
)

// TestSampledWarmMatchesDonor checks the warm invariant on cache state:
// for every synthetic kernel and every program, the substrate a sampled
// run warms from a fresh recipe stream (to RunSampled's limit for the
// budget) holds byte-for-byte the cache contents of a donor warmed over
// the materialised trace — the state every full-detail point of the
// workload starts from.
func TestSampledWarmMatchesDonor(t *testing.T) {
	const budget = 40_000
	n := trace.LenFor(budget)
	recipes := []trace.Recipe{
		{Kernel: trace.KernelStream, N: n},
		{Kernel: trace.KernelStrided, N: n, Stride: 8},
		{Kernel: trace.KernelStencil, N: n},
		{Kernel: trace.KernelReduction, N: n},
		{Kernel: trace.KernelBlocked, N: n},
		{Kernel: trace.KernelPointerChase, N: n},
		{Kernel: trace.KernelFPMix, N: n, Seed: 42},
	}
	for _, name := range programs.Names() {
		spec, _ := programs.Lookup(name)
		recipes = append(recipes, trace.Recipe{Kernel: trace.KernelProgram, Program: name, Input: spec.InputFor(budget), Seed: 42})
	}
	cfg := config.CheckpointDefault(128, 2048)
	snapshot := func(h *mem.Hierarchy) []byte {
		var b bytes.Buffer
		if err := h.WriteSnapshot(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	for _, r := range recipes {
		t.Run(r.String(), func(t *testing.T) {
			tr, err := r.Materialise()
			if err != nil {
				t.Fatal(err)
			}
			donor, err := WarmDonor(mem.WarmKeyFor(cfg), tr)
			if err != nil {
				t.Fatal(err)
			}
			st, err := r.OpenStream()
			if err != nil {
				t.Fatal(err)
			}
			warm, err := r.OpenStream()
			if err != nil {
				t.Fatal(err)
			}
			ss, err := newSampleState(cfg, st, warm, budget)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(snapshot(ss.hier), snapshot(donor)) {
				t.Fatal("sampled substrate's warm caches differ from the full-detail donor's")
			}
		})
	}
}
