package config

import (
	"fmt"
	"slices"
	"strings"
)

// This file holds the commit policies' parameter-block contracts:
// which blocks of Config each policy reads and how to validate them.
// Adding a policy means one CommitModes entry here, one case in
// Config.Validate and one in internal/core's newPolicy.
//
// The contract mirrors trace.Recipe's "identical workloads must
// fingerprint identically" rule from the simulation service: a
// parameter the selected policy ignores must be zero, otherwise two
// configurations that compute the same thing would hash to different
// content addresses and the result cache would never dedupe them.

// CommitModes lists every commit policy in presentation order.
var CommitModes = [...]CommitMode{CommitROB, CommitCheckpoint, CommitAdaptive, CommitOracle}

// ParseCommitMode resolves a policy name from user input (flags, JSON).
func ParseCommitMode(s string) (CommitMode, error) {
	m := CommitMode(s)
	if !slices.Contains(CommitModes[:], m) {
		return "", fmt.Errorf("config: unknown commit policy %q (valid: %s)", s, commitModeList())
	}
	return m, nil
}

// commitModeList renders the policy names for error messages.
func commitModeList() string {
	names := make([]string, len(CommitModes))
	for i, m := range CommitModes {
		names[i] = string(m)
	}
	return strings.Join(names, ", ")
}

// ---- per-policy validation ----

func validateROB(c Config, add func(string, ...any)) {
	if c.ROBEntries < 1 {
		add("rob policy requires ROBEntries >= 1, got %d", c.ROBEntries)
	}
	if c.CommitWidth < 1 {
		add("rob policy requires CommitWidth >= 1, got %d", c.CommitWidth)
	}
	rejectCheckpointBlock(c, "rob", add)
	rejectAdaptiveBlock(c, "rob", add)
	rejectVirtualRegisters(c, "rob", add)
}

func validateCheckpoint(c Config, add func(string, ...any)) {
	if c.CheckpointBranchInterval < 1 {
		add("checkpoint branch interval %d < 1", c.CheckpointBranchInterval)
	}
	if c.CheckpointMaxInterval < c.CheckpointBranchInterval {
		add("checkpoint max interval %d < branch interval %d",
			c.CheckpointMaxInterval, c.CheckpointBranchInterval)
	}
	validateCheckpointCommon(c, "checkpoint", add)
	rejectAdaptiveBlock(c, "checkpoint", add)
	validateVirtualRegisters(c, add)
}

func validateAdaptive(c Config, add func(string, ...any)) {
	// The confidence rule replaces the fixed branch-interval heuristic;
	// a non-zero interval would be dead configuration.
	if c.CheckpointBranchInterval != 0 {
		add("adaptive policy replaces CheckpointBranchInterval with the confidence estimator; set it to 0, got %d",
			c.CheckpointBranchInterval)
	}
	if c.CheckpointMaxInterval < 1 {
		add("checkpoint max interval %d < 1", c.CheckpointMaxInterval)
	}
	validateCheckpointCommon(c, "adaptive", add)
	if c.AdaptiveConfidenceBits < 1 || c.AdaptiveConfidenceBits > maxTableBits {
		add("adaptive confidence table bits %d out of range [1,%d]", c.AdaptiveConfidenceBits, maxTableBits)
	}
	if c.AdaptiveConfidenceMax < 1 || c.AdaptiveConfidenceMax > 255 {
		add("adaptive confidence counter max %d out of range [1,255]", c.AdaptiveConfidenceMax)
	}
	if c.AdaptiveConfidenceThreshold < 1 || c.AdaptiveConfidenceThreshold > c.AdaptiveConfidenceMax {
		add("adaptive confidence threshold %d out of range [1,%d]",
			c.AdaptiveConfidenceThreshold, c.AdaptiveConfidenceMax)
	}
	validateVirtualRegisters(c, add)
}

func validateOracle(c Config, add func(string, ...any)) {
	rejectROBBlock(c, "oracle", add)
	rejectCheckpointBlock(c, "oracle", add)
	rejectAdaptiveBlock(c, "oracle", add)
	rejectVirtualRegisters(c, "oracle", add)
}

// validateCheckpointCommon covers the parameter rules shared by the
// checkpoint family (checkpoint and adaptive): table, pseudo-ROB and
// SLIQ sizing, plus rejection of the rob block.
func validateCheckpointCommon(c Config, policy string, add func(string, ...any)) {
	if c.Checkpoints < 2 {
		// A window only commits once a younger checkpoint closes it, so
		// a single-entry table can never retire anything.
		add("%s policy requires at least 2 checkpoints, got %d", policy, c.Checkpoints)
	}
	if c.Checkpoints > maxCheckpoints {
		add("checkpoints %d > %d", c.Checkpoints, maxCheckpoints)
	}
	if c.CheckpointMaxInterval > maxCheckpointInterval {
		add("checkpoint max interval %d > %d", c.CheckpointMaxInterval, maxCheckpointInterval)
	}
	if c.PseudoROBEntries < 1 {
		add("%s policy requires a pseudo-ROB, got %d entries", policy, c.PseudoROBEntries)
	}
	if c.CheckpointMaxStores < 1 {
		add("checkpoint max stores %d < 1", c.CheckpointMaxStores)
	}
	if c.SLIQEntries < 0 {
		add("negative SLIQ entries %d", c.SLIQEntries)
	}
	if c.SLIQEntries > 0 {
		if c.SLIQWakeDelay < 0 {
			add("negative SLIQ wake delay %d", c.SLIQWakeDelay)
		}
		if c.SLIQWakeWidth < 1 {
			add("SLIQ wake width %d < 1", c.SLIQWakeWidth)
		}
	} else {
		if c.SLIQWakeDelay != 0 || c.SLIQWakeWidth != 0 {
			add("SLIQ disabled (0 entries) ignores wake delay %d / width %d; set both to 0",
				c.SLIQWakeDelay, c.SLIQWakeWidth)
		}
	}
	rejectROBBlock(c, policy, add)
}

// rejectROBBlock rejects the rob-only parameters for policies without a
// reorder buffer.
func rejectROBBlock(c Config, policy string, add func(string, ...any)) {
	if c.ROBEntries != 0 {
		add("%s policy ignores ROBEntries; set it to 0, got %d", policy, c.ROBEntries)
	}
	if c.CommitWidth != 0 {
		add("%s policy ignores CommitWidth (retirement is not N/cycle); set it to 0, got %d",
			policy, c.CommitWidth)
	}
}

// rejectCheckpointBlock rejects the checkpoint-family parameters for
// policies without a checkpoint table.
func rejectCheckpointBlock(c Config, policy string, add func(string, ...any)) {
	type field struct {
		name string
		val  int
	}
	for _, f := range []field{
		{"Checkpoints", c.Checkpoints},
		{"CheckpointBranchInterval", c.CheckpointBranchInterval},
		{"CheckpointMaxInterval", c.CheckpointMaxInterval},
		{"CheckpointMaxStores", c.CheckpointMaxStores},
		{"PseudoROBEntries", c.PseudoROBEntries},
		{"SLIQEntries", c.SLIQEntries},
		{"SLIQWakeDelay", c.SLIQWakeDelay},
		{"SLIQWakeWidth", c.SLIQWakeWidth},
	} {
		if f.val != 0 {
			add("%s policy ignores %s; set it to 0, got %d", policy, f.name, f.val)
		}
	}
}

// rejectAdaptiveBlock rejects the confidence-estimator parameters for
// policies that never consult it.
func rejectAdaptiveBlock(c Config, policy string, add func(string, ...any)) {
	type field struct {
		name string
		val  int
	}
	for _, f := range []field{
		{"AdaptiveConfidenceBits", c.AdaptiveConfidenceBits},
		{"AdaptiveConfidenceMax", c.AdaptiveConfidenceMax},
		{"AdaptiveConfidenceThreshold", c.AdaptiveConfidenceThreshold},
	} {
		if f.val != 0 {
			add("%s policy ignores %s; set it to 0, got %d", policy, f.name, f.val)
		}
	}
}

// validateVirtualRegisters checks the Figure 14 extension block where it
// is supported (the checkpoint family: tags bind to the deferred-free
// rename discipline).
func validateVirtualRegisters(c Config, add func(string, ...any)) {
	if c.VirtualRegisters && c.VirtualTags < 1 {
		add("virtual registers enabled but VirtualTags %d < 1", c.VirtualTags)
	}
	if !c.VirtualRegisters && c.VirtualTags != 0 {
		add("VirtualTags %d set but virtual registers disabled; set it to 0", c.VirtualTags)
	}
}

// rejectVirtualRegisters rejects the extension for policies whose
// rename discipline cannot host it (rob and oracle free registers at
// per-instruction commit, not at checkpoint commit).
func rejectVirtualRegisters(c Config, policy string, add func(string, ...any)) {
	if c.VirtualRegisters || c.VirtualTags != 0 {
		add("%s policy does not support virtual registers (checkpoint-family rename only)", policy)
	}
}
