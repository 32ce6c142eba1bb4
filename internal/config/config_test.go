package config

import (
	"strings"
	"testing"
)

func TestDefaultMatchesTable1(t *testing.T) {
	c := Default()
	if err := c.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	checks := []struct {
		name string
		got  int
		want int
	}{
		{"fetch width", c.FetchWidth, 4},
		{"issue width", c.IssueWidth, 4},
		{"commit width", c.CommitWidth, 4},
		{"predictor bits (16K)", c.BranchPredictorBits, 14},
		{"mispredict penalty", c.BranchMispredictPenalty, 10},
		{"IL1 size", c.IL1.SizeBytes, 32 << 10},
		{"IL1 line", c.IL1.LineBytes, 32},
		{"IL1 latency", c.IL1.LatencyCycles, 2},
		{"DL1 size", c.DL1.SizeBytes, 32 << 10},
		{"L2 size", c.L2.SizeBytes, 512 << 10},
		{"L2 line", c.L2.LineBytes, 64},
		{"L2 latency", c.L2.LatencyCycles, 10},
		{"memory latency", c.MemoryLatency, 1000},
		{"memory ports", c.MemoryPorts, 2},
		{"physical registers", c.PhysRegs, 4096},
		{"LSQ", c.LSQEntries, 4096},
		{"int queue", c.IntQueueEntries, 4096},
		{"fp queue", c.FPQueueEntries, 4096},
		{"ROB", c.ROBEntries, 4096},
		{"int ALUs", c.IntAlu.Count, 4},
		{"int mul units", c.IntMul.Count, 2},
		{"mul latency", c.IntMul.Latency, 3},
		{"div latency", c.IntDiv.Latency, 20},
		{"div repeat (unpipelined)", c.IntDiv.Repeat, 20},
		{"FP units", c.FPAlu.Count, 4},
		{"FP latency", c.FPAlu.Latency, 2},
	}
	for _, ch := range checks {
		if ch.got != ch.want {
			t.Errorf("%s = %d, want %d", ch.name, ch.got, ch.want)
		}
	}
}

func TestCheckpointDefault(t *testing.T) {
	c := CheckpointDefault(64, 1024)
	if err := c.Validate(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if c.Commit != CommitCheckpoint {
		t.Error("commit mode should be checkpoint")
	}
	if c.IntQueueEntries != 64 || c.FPQueueEntries != 64 || c.PseudoROBEntries != 64 {
		t.Error("queues and pseudo-ROB must all equal the iq parameter (paper's setup)")
	}
	if c.SLIQEntries != 1024 {
		t.Error("SLIQ size not applied")
	}
	if c.Checkpoints != 8 {
		t.Errorf("paper default is 8 checkpoints, got %d", c.Checkpoints)
	}
	if c.CheckpointBranchInterval != 64 || c.CheckpointMaxInterval != 512 || c.CheckpointMaxStores != 64 {
		t.Error("checkpoint heuristics must match the paper (64/512/64)")
	}
}

func TestBaselineSized(t *testing.T) {
	c := BaselineSized(256)
	if err := c.Validate(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if c.ROBEntries != 256 || c.IntQueueEntries != 256 || c.FPQueueEntries != 256 {
		t.Error("BaselineSized must scale ROB and both queues")
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	bad := []func(c *Config){
		func(c *Config) { c.FetchWidth = 0 },
		func(c *Config) { c.IssueWidth = -1 },
		func(c *Config) { c.BranchPredictorBits = 0 },
		func(c *Config) { c.IL1.LineBytes = 48 }, // not a power of two
		func(c *Config) { c.L2.Assoc = 0 },
		func(c *Config) { c.MemoryLatency = 0 },
		func(c *Config) { c.MemoryPorts = 0 },
		func(c *Config) { c.PhysRegs = 10 },
		func(c *Config) { c.PhysRegs = 64 }, // one per logical register, none to rename into
		func(c *Config) { c.ROBEntries = 0 },
		func(c *Config) { c.IntMul.Count = 1 }, // mul/div share units
		func(c *Config) { c.IntAlu.Repeat = 5 },
		// Latencies size allocations made before the first cycle.
		func(c *Config) { c.MemoryLatency = 1<<16 + 1 },
		func(c *Config) { c.MemoryLatency = 1 << 30 },
		func(c *Config) { c.IL1.LatencyCycles = 1<<10 + 1 },
		func(c *Config) { c.DL1.LatencyCycles = 1<<10 + 1 },
		func(c *Config) { c.L2.LatencyCycles = 1<<10 + 1 },
		func(c *Config) { c.IntAlu.Latency = 1<<10 + 1 },
		func(c *Config) { c.IntMul.Latency = 1<<10 + 1 },
		func(c *Config) { c.IntDiv.Latency = 1<<10 + 1 },
		func(c *Config) { c.FPAlu.Latency = 1<<10 + 1 },
	}
	for i, mutate := range bad {
		c := Default()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	// The latency bounds themselves validate.
	c := Default()
	c.MemoryLatency = 1 << 16
	c.IL1.LatencyCycles, c.DL1.LatencyCycles, c.L2.LatencyCycles = 1<<10, 1<<10, 1<<10
	c.FPAlu.Latency = 1 << 10
	if err := c.Validate(); err != nil {
		t.Errorf("latencies at their bounds: %v", err)
	}

	// Structure sizes bound allocations made before the first cycle too.
	overBound := []struct {
		base   func() Config
		mutate func(c *Config)
	}{
		{Default, func(c *Config) { c.PhysRegs = 1<<16 + 1 }},
		{Default, func(c *Config) { c.LSQEntries = 1<<16 + 1 }},
		{Default, func(c *Config) { c.IntQueueEntries = 1<<16 + 1 }},
		{Default, func(c *Config) { c.FPQueueEntries = 1<<16 + 1 }},
		{Default, func(c *Config) { c.ROBEntries = 1<<16 + 1 }},
		{Default, func(c *Config) { c.BranchPredictorBits = 25 }},
		{Default, func(c *Config) { c.BranchPredictorBits = 30 }},
		{Default, func(c *Config) { c.IntAlu.Count = 1<<10 + 1 }},
		{Default, func(c *Config) { c.IntMul.Count, c.IntDiv.Count = 1<<10+1, 1<<10+1 }},
		{Default, func(c *Config) { c.FPAlu.Count = 1<<10 + 1 }},
		{Default, func(c *Config) { c.L2.SizeBytes = 1 << 27 }},
		{Default, func(c *Config) { c.L2.SizeBytes, c.L2.LineBytes = 1<<26, 32 }}, // 2M lines
		// An associativity times line size that overflows to zero must be
		// rejected, not divided by.
		{Default, func(c *Config) { c.DL1.Assoc, c.DL1.LineBytes = 1<<40, 1<<32 }},
		{checkpointCfg, func(c *Config) { c.PseudoROBEntries = 1<<16 + 1 }},
		{checkpointCfg, func(c *Config) { c.SLIQEntries = 1<<16 + 1 }},
		{checkpointCfg, func(c *Config) { c.Checkpoints = 257 }},
		{checkpointCfg, func(c *Config) { c.CheckpointMaxInterval = 4097 }},
		{checkpointCfg, func(c *Config) { c.VirtualRegisters, c.VirtualTags = true, 1<<16+1 }},
		{adaptiveCfg, func(c *Config) { c.AdaptiveConfidenceBits = 25 }},
		{adaptiveCfg, func(c *Config) { c.Checkpoints = 1 << 20 }},
		{adaptiveCfg, func(c *Config) { c.CheckpointMaxInterval = 1 << 20 }},
	}
	for i, tc := range overBound {
		c := tc.base()
		tc.mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("over-bound case %d: expected validation error", i)
		}
	}
	// The structure-size bounds themselves validate, under every policy
	// that reads them.
	atBounds := func(c *Config) {
		c.PhysRegs, c.LSQEntries = 1<<16, 1<<16
		c.IntQueueEntries, c.FPQueueEntries = 1<<16, 1<<16
		c.BranchPredictorBits = 24
		c.IntAlu.Count, c.IntMul.Count, c.IntDiv.Count, c.FPAlu.Count = 1<<10, 1<<10, 1<<10, 1<<10
		c.IL1.SizeBytes, c.DL1.SizeBytes, c.L2.SizeBytes = 1<<25, 1<<25, 1<<26 // 2^20 lines each
		if c.Commit == CommitROB {
			c.ROBEntries = 1 << 16
		}
		if c.Commit == CommitCheckpoint || c.Commit == CommitAdaptive {
			c.PseudoROBEntries, c.SLIQEntries = 1<<16, 1<<16
			c.Checkpoints, c.CheckpointMaxInterval = 256, 4096
			c.VirtualRegisters, c.VirtualTags = true, 1<<16
		}
		if c.Commit == CommitAdaptive {
			c.AdaptiveConfidenceBits = 24
		}
	}
	for _, base := range []func() Config{Default, checkpointCfg, adaptiveCfg, OracleDefault} {
		c := base()
		atBounds(&c)
		if err := c.Validate(); err != nil {
			t.Errorf("%s: sizes at their bounds: %v", c.Commit, err)
		}
	}
}

func checkpointCfg() Config { return CheckpointDefault(64, 512) }
func adaptiveCfg() Config   { return AdaptiveDefault(64, 512) }

// TestValidateErrorOrder: one invalid configuration always yields one
// message, with its parts in Table 1 order. The text is ooosimd's 400
// response body for a bad job.
func TestValidateErrorOrder(t *testing.T) {
	c := Default()
	c.IL1.LineBytes = 48
	c.L2.Assoc = 0
	c.IntAlu.Repeat = 5
	c.FPAlu.Count = 0
	first := c.Validate()
	if first == nil {
		t.Fatal("expected validation errors")
	}
	for i := 0; i < 50; i++ {
		if got := c.Validate(); got.Error() != first.Error() {
			t.Fatalf("call %d: %q, want %q", i, got, first)
		}
	}
	msg, at := first.Error(), -1
	for _, part := range []string{"IL1: ", "L2: ", "IntAlu: ", "FPAlu: "} {
		i := strings.Index(msg, part)
		if i <= at {
			t.Fatalf("%q missing or out of order in %q", part, msg)
		}
		at = i
	}
}

func TestValidateCheckpointMode(t *testing.T) {
	bad := []func(c *Config){
		func(c *Config) { c.Checkpoints = 1 },
		func(c *Config) { c.PseudoROBEntries = 0 },
		func(c *Config) { c.CheckpointBranchInterval = 0 },
		func(c *Config) { c.CheckpointMaxInterval = 10 }, // below branch interval
		func(c *Config) { c.CheckpointMaxStores = 0 },
		func(c *Config) { c.SLIQEntries = -1 },
		func(c *Config) { c.SLIQWakeWidth = 0 },
		func(c *Config) { c.VirtualRegisters = true; c.VirtualTags = 0 },
	}
	for i, mutate := range bad {
		c := CheckpointDefault(64, 512)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestCacheConfigSets(t *testing.T) {
	cc := CacheConfig{SizeBytes: 32 << 10, Assoc: 4, LineBytes: 32, LatencyCycles: 2}
	if got := cc.Sets(); got != 256 {
		t.Errorf("Sets = %d, want 256", got)
	}
}

func TestStringRendering(t *testing.T) {
	s := Default().String()
	for _, want := range []string{"gshare", "512 KB", "1000 cycles", "4096 entries"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 1 rendering missing %q:\n%s", want, s)
		}
	}
	cs := CheckpointDefault(32, 512).String()
	for _, want := range []string{"Checkpoint table", "Pseudo-ROB", "SLIQ"} {
		if !strings.Contains(cs, want) {
			t.Errorf("checkpoint rendering missing %q", want)
		}
	}
}

func TestSummary(t *testing.T) {
	if s := BaselineSized(128).Summary(); !strings.Contains(s, "baseline rob=128") {
		t.Errorf("baseline summary: %q", s)
	}
	c := CheckpointDefault(64, 1024)
	c.VirtualRegisters = true
	c.VirtualTags = 512
	if s := c.Summary(); !strings.Contains(s, "cooo iq=64") || !strings.Contains(s, "vtags=512") {
		t.Errorf("checkpoint summary: %q", s)
	}
	c.PerfectL2 = true
	if s := c.Summary(); !strings.Contains(s, "perfectL2") {
		t.Errorf("perfect L2 summary: %q", s)
	}
}

func TestCommitModeString(t *testing.T) {
	if CommitROB.String() != "rob" || CommitCheckpoint.String() != "checkpoint" ||
		CommitAdaptive.String() != "adaptive" || CommitOracle.String() != "oracle" {
		t.Error("commit mode names wrong")
	}
}

func TestCommitPolicyRegistry(t *testing.T) {
	want := [...]CommitMode{CommitROB, CommitCheckpoint, CommitAdaptive, CommitOracle}
	if CommitModes != want {
		t.Fatalf("CommitModes = %v, want %v", CommitModes, want)
	}
	if _, err := ParseCommitMode("adaptive"); err != nil {
		t.Errorf("ParseCommitMode(adaptive): %v", err)
	}
	if _, err := ParseCommitMode("warp"); err == nil {
		t.Error("ParseCommitMode accepted an unknown policy")
	} else if !strings.Contains(err.Error(), "oracle") {
		t.Errorf("error should list valid policies: %v", err)
	}
}

func TestAdaptiveDefault(t *testing.T) {
	c := AdaptiveDefault(64, 1024)
	if err := c.Validate(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if c.Commit != CommitAdaptive {
		t.Error("commit mode should be adaptive")
	}
	if c.CheckpointBranchInterval != 0 {
		t.Error("adaptive replaces the branch-interval rule; it must be 0")
	}
	if c.AdaptiveConfidenceBits != 12 || c.AdaptiveConfidenceMax != 15 || c.AdaptiveConfidenceThreshold != 8 {
		t.Errorf("confidence defaults wrong: %d/%d/%d",
			c.AdaptiveConfidenceBits, c.AdaptiveConfidenceMax, c.AdaptiveConfidenceThreshold)
	}
	if !strings.Contains(c.Summary(), "adaptive") {
		t.Errorf("summary: %q", c.Summary())
	}
	if s := c.String(); !strings.Contains(s, "Confidence estimator") {
		t.Errorf("Table-1 rendering missing the estimator:\n%s", s)
	}
}

func TestOracleDefault(t *testing.T) {
	c := OracleDefault()
	if err := c.Validate(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if c.Commit != CommitOracle {
		t.Error("commit mode should be oracle")
	}
	if c.ROBEntries != 0 || c.CommitWidth != 0 {
		t.Error("oracle must zero the rob block")
	}
	if !strings.Contains(c.Summary(), "oracle") {
		t.Errorf("summary: %q", c.Summary())
	}
	if s := c.String(); !strings.Contains(s, "unbounded window") {
		t.Errorf("Table-1 rendering missing the oracle row:\n%s", s)
	}
}

// TestValidateRejectsIgnoredBlocks pins the fingerprint-identity rule:
// a parameter the selected policy never reads must be zero, so two
// configurations describing the same simulation cannot hash to
// different cache addresses.
func TestValidateRejectsIgnoredBlocks(t *testing.T) {
	cases := []struct {
		name   string
		mutate func() Config
	}{
		{"rob with checkpoint table", func() Config {
			c := Default()
			c.Checkpoints = 8
			return c
		}},
		{"rob with SLIQ wake width", func() Config {
			c := Default()
			c.SLIQWakeWidth = 4
			return c
		}},
		{"rob with confidence block", func() Config {
			c := Default()
			c.AdaptiveConfidenceBits = 12
			return c
		}},
		{"rob with virtual registers", func() Config {
			c := Default()
			c.VirtualRegisters = true
			c.VirtualTags = 512
			return c
		}},
		{"checkpoint with ROB entries", func() Config {
			c := CheckpointDefault(64, 1024)
			c.ROBEntries = 128
			return c
		}},
		{"checkpoint with commit width", func() Config {
			c := CheckpointDefault(64, 1024)
			c.CommitWidth = 4
			return c
		}},
		{"checkpoint with confidence block", func() Config {
			c := CheckpointDefault(64, 1024)
			c.AdaptiveConfidenceThreshold = 8
			return c
		}},
		{"checkpoint without SLIQ but with wake params", func() Config {
			c := CheckpointDefault(64, 0)
			c.SLIQWakeWidth = 4
			return c
		}},
		{"adaptive with branch interval", func() Config {
			c := AdaptiveDefault(64, 1024)
			c.CheckpointBranchInterval = 64
			return c
		}},
		{"oracle with checkpoint table", func() Config {
			c := OracleDefault()
			c.Checkpoints = 8
			c.CheckpointBranchInterval = 64
			c.CheckpointMaxInterval = 512
			c.CheckpointMaxStores = 64
			c.PseudoROBEntries = 128
			return c
		}},
		{"oracle with rob entries", func() Config {
			c := OracleDefault()
			c.ROBEntries = 4096
			return c
		}},
		{"virtual tags without the extension", func() Config {
			c := CheckpointDefault(64, 1024)
			c.VirtualTags = 512
			return c
		}},
	}
	for _, tc := range cases {
		if err := tc.mutate().Validate(); err == nil {
			t.Errorf("%s: expected a validation error", tc.name)
		}
	}
}

func TestValidateAdaptiveMode(t *testing.T) {
	bad := []func(c *Config){
		func(c *Config) { c.AdaptiveConfidenceBits = 0 },
		func(c *Config) { c.AdaptiveConfidenceBits = 31 },
		func(c *Config) { c.AdaptiveConfidenceMax = 0 },
		func(c *Config) { c.AdaptiveConfidenceMax = 256 },
		func(c *Config) { c.AdaptiveConfidenceThreshold = 0 },
		func(c *Config) { c.AdaptiveConfidenceThreshold = 16 }, // above the counter max
		func(c *Config) { c.Checkpoints = 1 },
		func(c *Config) { c.CheckpointMaxInterval = 0 },
	}
	for i, mutate := range bad {
		c := AdaptiveDefault(64, 512)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}
