package sim

import (
	"testing"

	"repro/internal/config"
	"repro/internal/trace"
)

// TestFingerprintDiscriminates: every input dimension must change the
// address, and identical inputs must agree across calls.
func TestFingerprintDiscriminates(t *testing.T) {
	base := func() (config.Config, string, uint64, bool) {
		return config.CheckpointDefault(64, 1024), "fpmix/n=360000/seed=42/stride=0", 300_000, false
	}

	cfg, recipe, insts, occ := base()
	ref, err := Fingerprint(cfg, recipe, insts, occ)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Fingerprint(cfg, recipe, insts, occ)
	if err != nil {
		t.Fatal(err)
	}
	if ref != again {
		t.Fatalf("identical inputs produced different fingerprints: %s vs %s", ref, again)
	}
	if len(ref) != 64 {
		t.Fatalf("fingerprint %q is not hex sha256", ref)
	}

	variants := map[string]string{}
	add := func(name string, cfg config.Config, recipe string, insts uint64, occ bool) {
		fp, err := Fingerprint(cfg, recipe, insts, occ)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if fp == ref {
			t.Errorf("%s: fingerprint did not change", name)
		}
		if prev, dup := variants[fp]; dup {
			t.Errorf("%s collides with %s", name, prev)
		}
		variants[fp] = name
	}

	cfg2, _, _, _ := base()
	cfg2.MemoryLatency = 500
	add("config change", cfg2, recipe, insts, occ)
	add("recipe change", cfg, "stream/n=360000/seed=0/stride=0", insts, occ)
	add("insts change", cfg, recipe, insts+1, occ)
	add("occupancy flag", cfg, recipe, insts, true)
}

// TestFingerprintRejectsInvalid: no canonical form, no address.
func TestFingerprintRejectsInvalid(t *testing.T) {
	if _, err := Fingerprint(config.Config{}, "stream/n=1/seed=0/stride=0", 1, false); err == nil {
		t.Error("invalid config fingerprinted")
	}
}

// TestRunSpecFingerprint covers the spec-level hook, including the
// recipe-less and trace-less failure paths.
func TestRunSpecFingerprint(t *testing.T) {
	tr := trace.Stream(2000)
	spec := RunSpec{Name: "stream", Config: config.BaselineSized(128), Trace: tr, Insts: 1000}
	fp, err := spec.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	r, _ := tr.Recipe()
	direct, err := Fingerprint(spec.Config, r.String(), spec.Insts, false)
	if err != nil {
		t.Fatal(err)
	}
	if fp != direct {
		t.Errorf("spec fingerprint %s != direct fingerprint %s", fp, direct)
	}

	w := trace.DefaultWeights()
	w.Blocked++
	spec.Trace = trace.Mix(2000, 1, w)
	if _, err := spec.Fingerprint(); err == nil {
		t.Error("recipe-less trace fingerprinted")
	}
	spec.Trace = nil
	if _, err := spec.Fingerprint(); err == nil {
		t.Error("nil trace fingerprinted")
	}
}

// TestShardFor: stable, in-range, total (even for non-hex input), and
// reasonably balanced over real fingerprints.
func TestShardFor(t *testing.T) {
	fp, err := Fingerprint(config.Default(), "stream/n=2000/seed=0/stride=0", 1000, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 2, 3, 7, 16} {
		s := ShardFor(fp, n)
		if s != ShardFor(fp, n) {
			t.Fatalf("ShardFor not stable at n=%d", n)
		}
		bound := n
		if bound < 1 {
			bound = 1
		}
		if s < 0 || s >= bound {
			t.Fatalf("ShardFor(%q, %d) = %d out of range", fp, n, s)
		}
	}
	if ShardFor("not hex at all", 4) < 0 {
		t.Fatal("non-hex input must still shard")
	}

	// Balance: the figure-9 grid's fingerprints must not collapse onto
	// one shard (prefix sharding over sha256 is uniform; this guards
	// against a parsing bug that zeroes the prefix).
	counts := make([]int, 3)
	for _, lat := range []int{100, 200, 500, 1000} {
		for _, iq := range []int{32, 64, 128} {
			cfg := config.CheckpointDefault(iq, 1024)
			cfg.MemoryLatency = lat
			fp, err := Fingerprint(cfg, "fpmix/n=48000/seed=42/stride=0", 40000, false)
			if err != nil {
				t.Fatal(err)
			}
			counts[ShardFor(fp, 3)]++
		}
	}
	for s, c := range counts {
		if c == 0 {
			t.Errorf("shard %d received no points from a 12-point grid: %v", s, counts)
		}
	}
}

// TestFingerprintPinned is the zero-drift guard for the content-
// addressed cache: a representative synthetic point must keep the exact
// address it had before the program-workload extension (so every
// existing cache entry stays valid), and a program point must address
// deterministically under the same unbumped version. If either constant
// changes, either bump FingerprintVersion deliberately or find the
// accidental encoding drift.
func TestFingerprintPinned(t *testing.T) {
	for _, tc := range []struct {
		name   string
		recipe string
		want   string
	}{
		{"synthetic", "fpmix/n=360000/seed=42/stride=0",
			"1186eb90ac29cc63d67aaaf018ab8fa4a70d85a2e6c03a6e4501e9e8b63894c2"},
		{"program", "program/isort/input=400/seed=42",
			"1c77423c4cda8f75a0e0c4e90abccaa3fffa365561976bc78947b978a75f4024"},
	} {
		insts := uint64(300_000)
		if tc.name == "program" {
			insts = 100_000
		}
		fp, err := Fingerprint(config.CheckpointDefault(64, 1024), tc.recipe, insts, false)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if fp != tc.want {
			t.Errorf("%s fingerprint drifted:\n got %s\nwant %s", tc.name, fp, tc.want)
		}
	}
}

// TestProgramRecipeFingerprints: program points must address cleanly —
// distinct per program, input and seed, computable through the RunSpec
// hook from a recipe-only trace (the service path never materialises
// just to fingerprint), and disjoint from every synthetic point by
// construction of the canonical string.
func TestProgramRecipeFingerprints(t *testing.T) {
	cfg := config.CheckpointDefault(64, 1024)
	seen := map[string]string{}
	for _, r := range []trace.Recipe{
		{Kernel: trace.KernelProgram, Program: "isort", Input: 400, Seed: 42},
		{Kernel: trace.KernelProgram, Program: "isort", Input: 401, Seed: 42},
		{Kernel: trace.KernelProgram, Program: "isort", Input: 400, Seed: 43},
		{Kernel: trace.KernelProgram, Program: "chase", Input: 400, Seed: 42},
		{Kernel: trace.KernelFPMix, N: 400, Seed: 42},
	} {
		tr, err := trace.StreamOnly(r)
		if err != nil {
			t.Fatal(err)
		}
		spec := RunSpec{Name: r.WorkloadName(), Config: cfg, Trace: tr, Insts: 100_000}
		fp, err := spec.Fingerprint()
		if err != nil {
			t.Fatalf("%s: %v", r, err)
		}
		if prev, dup := seen[fp]; dup {
			t.Errorf("%s collides with %s", r, prev)
		}
		seen[fp] = r.String()
	}
}

// TestFingerprintDistinctPerCommitPolicy: the same workload under each
// registered commit policy must content-address differently — the
// commit-policies ablation relies on the service cache never aliasing
// results across policies.
func TestFingerprintDistinctPerCommitPolicy(t *testing.T) {
	const recipe = "fpmix/n=360000/seed=42/stride=0"
	seen := map[string]string{}
	for _, cfg := range []config.Config{
		config.BaselineSized(128),
		config.CheckpointDefault(128, 2048),
		config.AdaptiveDefault(128, 2048),
		config.OracleDefault(),
	} {
		fp, err := Fingerprint(cfg, recipe, 300_000, false)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Commit, err)
		}
		if prev, dup := seen[fp]; dup {
			t.Errorf("%s collides with %s", cfg.Commit, prev)
		}
		seen[fp] = string(cfg.Commit)
	}
}
