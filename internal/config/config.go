// Package config holds the architectural parameters of the simulated
// processor. Default() reproduces Table 1 of Cristal et al., HPCA 2004.
package config

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/isa"
)

// CommitMode names the retirement mechanism (the commit policy) of the
// simulated processor: the wire form, the fingerprint component, and
// the -commit CLI value are all this name. See policy.go for the list
// of policies (CommitModes) and their parameter-block contracts.
type CommitMode string

const (
	// CommitROB is the conventional baseline: a reorder buffer retires
	// instructions strictly in program order.
	CommitROB CommitMode = "rob"
	// CommitCheckpoint is the paper's proposal: no ROB; a small
	// checkpoint table commits whole checkpoints out of order with
	// respect to instruction completion (in order among checkpoints).
	CommitCheckpoint CommitMode = "checkpoint"
	// CommitAdaptive is checkpointed commit with confidence-driven
	// checkpoint placement: instead of the paper's fixed
	// instruction-interval heuristics, checkpoints are taken at branches
	// a small saturating-counter estimator marks as low-confidence, so
	// likely rollback targets are cheap to roll back to.
	CommitAdaptive CommitMode = "adaptive"
	// CommitOracle is the unbounded-window upper-bound baseline for
	// Figure 1-style limit studies: in-order retirement with no commit
	// structure limit at all (window growth is bounded only by the
	// register file, queues and LSQ).
	CommitOracle CommitMode = "oracle"
)

// String implements fmt.Stringer.
func (m CommitMode) String() string { return string(m) }

// Branch-target-buffer geometry, used for program workloads (real-PC
// traces; synthetic kernels carry no branch targets and never build a
// BTB). Deliberately package constants rather than Config fields: the
// canonical configuration encoding (CanonicalJSON) feeds every cache
// fingerprint, so adding a struct field would re-key every cached
// result — these are fixed microarchitectural parameters, like the
// cache line size embedded in the hierarchy.
const (
	// BTBSets is the number of BTB sets (power of two).
	BTBSets = 128
	// BTBWays is the BTB associativity (512 entries total).
	BTBWays = 4
)

// CacheConfig describes one cache level.
type CacheConfig struct {
	// SizeBytes is the total capacity.
	SizeBytes int
	// Assoc is the set associativity.
	Assoc int
	// LineBytes is the cache line size.
	LineBytes int
	// LatencyCycles is the access (hit) latency.
	LatencyCycles int
}

// Sets returns the number of sets implied by the geometry.
func (c CacheConfig) Sets() int { return c.SizeBytes / (c.Assoc * c.LineBytes) }

// Latency bounds. The pipeline sizes its completion wheel from the sum
// of the latencies, and the memory hierarchy pre-sizes its in-flight
// fill table to the memory latency, both before the first cycle: an
// unbounded latency would be an unbounded allocation.
const (
	maxMemoryLatency = 1 << 16
	maxLatency       = 1 << 10 // any cache or functional-unit latency
)

// Structure-size bounds, for the same reason: every structure is built
// at its configured size before the first cycle, and the checkpoint
// family's occupancy histogram holds 4·CheckpointMaxInterval·Checkpoints
// buckets. The largest configurations the figures build sit far inside
// (4096 entries, 2048 tags, 128 checkpoints, an interval of 512).
const (
	maxEntries            = 1 << 16 // registers, virtual tags and queue entries
	maxCheckpoints        = 256
	maxCheckpointInterval = 4096
	maxTableBits          = 24      // predictor and confidence tables
	maxUnits              = 1 << 10 // functional units of one class
	maxCacheBytes         = 1 << 26
	maxCacheLines         = 1 << 20 // a cache's tag array
)

// Validate reports geometry errors.
func (c CacheConfig) Validate() error {
	switch {
	case c.SizeBytes <= 0, c.Assoc <= 0, c.LineBytes <= 0:
		return fmt.Errorf("config: cache geometry must be positive: %+v", c)
	case c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("config: line size %d not a power of two", c.LineBytes)
	case c.SizeBytes > maxCacheBytes:
		return fmt.Errorf("config: cache size %d > %d", c.SizeBytes, maxCacheBytes)
	case c.Assoc > c.SizeBytes, c.LineBytes > c.SizeBytes:
		// Keeps Assoc*LineBytes below from overflowing (to zero, at worst).
		return fmt.Errorf("config: associativity %d or line size %d exceeds cache size %d",
			c.Assoc, c.LineBytes, c.SizeBytes)
	case c.SizeBytes%(c.Assoc*c.LineBytes) != 0:
		return fmt.Errorf("config: size %d not divisible by assoc*line %d",
			c.SizeBytes, c.Assoc*c.LineBytes)
	case c.Sets()&(c.Sets()-1) != 0:
		return fmt.Errorf("config: set count %d not a power of two", c.Sets())
	case c.LatencyCycles < 1:
		return fmt.Errorf("config: cache latency %d < 1", c.LatencyCycles)
	case c.LatencyCycles > maxLatency:
		return fmt.Errorf("config: cache latency %d > %d", c.LatencyCycles, maxLatency)
	case c.SizeBytes/c.LineBytes > maxCacheLines:
		return fmt.Errorf("config: %d cache lines > %d", c.SizeBytes/c.LineBytes, maxCacheLines)
	}
	return nil
}

// FUConfig describes one functional-unit class: how many units exist and
// their latency/repeat (initiation interval) behaviour, as in Table 1.
type FUConfig struct {
	// Count is the number of identical units.
	Count int
	// Latency is the cycles from issue to result availability.
	Latency int
	// Repeat is the initiation interval; 1 means fully pipelined,
	// Repeat == Latency means unpipelined.
	Repeat int
}

// Validate reports parameter errors.
func (f FUConfig) Validate() error {
	if f.Count <= 0 || f.Latency <= 0 || f.Repeat <= 0 {
		return fmt.Errorf("config: functional unit fields must be positive: %+v", f)
	}
	if f.Repeat > f.Latency {
		return fmt.Errorf("config: repeat %d exceeds latency %d", f.Repeat, f.Latency)
	}
	if f.Count > maxUnits {
		return fmt.Errorf("config: functional unit count %d > %d", f.Count, maxUnits)
	}
	if f.Latency > maxLatency {
		return fmt.Errorf("config: functional unit latency %d > %d", f.Latency, maxLatency)
	}
	return nil
}

// Config is the full architectural configuration. The zero value is not
// usable; start from Default() and override fields.
type Config struct {
	// FetchWidth is the number of instructions fetched and decoded per
	// cycle (and the pseudo-ROB extraction bandwidth).
	FetchWidth int
	// IssueWidth is the number of instructions issued to functional
	// units per cycle.
	IssueWidth int
	// CommitWidth is the number of instructions retired per cycle in
	// ROB mode. Checkpoint commit retires whole checkpoints and the
	// oracle has no retire bound, so every other policy requires this
	// to be 0 (the paper's point, enforced by Validate).
	CommitWidth int

	// BranchPredictorBits is log2 of the gshare table size (14 -> 16K
	// entries as in Table 1).
	BranchPredictorBits int
	// BranchMispredictPenalty is the front-end redirect penalty in
	// cycles after a mispredicted branch resolves.
	BranchMispredictPenalty int
	// PerfectBranchPrediction disables the gshare predictor and makes
	// every prediction correct (ablation aid).
	PerfectBranchPrediction bool

	// IL1, DL1 and L2 configure the cache hierarchy.
	IL1, DL1, L2 CacheConfig
	// MemoryLatency is the L2-miss to main-memory round trip in cycles.
	MemoryLatency int
	// MemoryPorts is the number of concurrent main-memory accesses.
	MemoryPorts int
	// PerfectL2 makes every L2 access hit (the "L2 Perfect" series of
	// Figure 1).
	PerfectL2 bool
	// PrefetchDegree enables a next-line prefetcher: every demand miss
	// to main memory also starts fills for the following N lines. The
	// paper's introduction argues prefetching alone cannot close the
	// latency gap; the prefetch ablation quantifies that claim. 0
	// disables (the paper's configuration).
	PrefetchDegree int

	// PhysRegs is the physical register file size (pseudo-perfect 4096
	// by default).
	PhysRegs int
	// LSQEntries is the load/store queue capacity (pseudo-perfect 4096
	// by default).
	LSQEntries int
	// IntQueueEntries and FPQueueEntries size the two general-purpose
	// instruction queues.
	IntQueueEntries int
	FPQueueEntries  int
	// ROBEntries is the reorder-buffer capacity (ROB mode only).
	ROBEntries int

	// Commit selects the commit policy. Each policy reads its own
	// parameter block below; Validate rejects non-zero parameters the
	// selected policy ignores, so configurations describing the same
	// simulation always fingerprint identically.
	Commit CommitMode

	// Checkpoints is the checkpoint-table capacity (checkpoint family).
	Checkpoints int
	// CheckpointBranchInterval is the instruction count after which the
	// next branch forces a checkpoint (64 in the paper). The adaptive
	// policy replaces this rule with the confidence estimator and
	// requires it to be 0.
	CheckpointBranchInterval int
	// CheckpointMaxInterval unconditionally forces a checkpoint after
	// this many instructions (512 in the paper).
	CheckpointMaxInterval int
	// CheckpointMaxStores forces a checkpoint after this many stores
	// to bound LSQ occupancy (64 in the paper).
	CheckpointMaxStores int

	// AdaptiveConfidenceBits is log2 of the branch-confidence estimator
	// table (adaptive policy only).
	AdaptiveConfidenceBits int
	// AdaptiveConfidenceMax is the saturating-counter ceiling of the
	// estimator (15 = 4-bit counters).
	AdaptiveConfidenceMax int
	// AdaptiveConfidenceThreshold classifies a branch as low-confidence
	// (and worth a checkpoint) while its counter is below this value.
	AdaptiveConfidenceThreshold int

	// PseudoROBEntries sizes the pseudo-ROB FIFO (checkpoint mode).
	// The paper always sizes it equal to the instruction queues.
	PseudoROBEntries int
	// SLIQEntries sizes the Slow Lane Instruction Queue; 0 disables the
	// SLIQ (long-latency dependents then stay in the issue queues).
	SLIQEntries int
	// SLIQWakeDelay is the start-up penalty, in cycles, between the
	// triggering register write and the first re-insertion (4 in the
	// paper; Figure 10 sweeps 1..12).
	SLIQWakeDelay int
	// SLIQWakeWidth is the number of instructions re-inserted per cycle
	// once a wake is in progress (4 in the paper).
	SLIQWakeWidth int

	// IntAlu, IntMul, IntDiv and FPAlu configure the functional units.
	// IntMul and IntDiv share the same physical units (Table 1's
	// "Integer Mult/DIV Units"); Count must agree between the two.
	IntAlu, IntMul, IntDiv, FPAlu FUConfig

	// VirtualRegisters enables the ephemeral-register extension used in
	// Figure 14: renaming allocates virtual tags and physical registers
	// are bound late (at writeback) and released early.
	VirtualRegisters bool
	// VirtualTags is the virtual tag space size when VirtualRegisters
	// is enabled.
	VirtualTags int
}

// Default returns the baseline configuration of Table 1.
func Default() Config {
	return Config{
		FetchWidth:  4,
		IssueWidth:  4,
		CommitWidth: 4,

		BranchPredictorBits:     14, // 16K-entry gshare
		BranchMispredictPenalty: 10,

		IL1:           CacheConfig{SizeBytes: 32 << 10, Assoc: 4, LineBytes: 32, LatencyCycles: 2},
		DL1:           CacheConfig{SizeBytes: 32 << 10, Assoc: 4, LineBytes: 32, LatencyCycles: 2},
		L2:            CacheConfig{SizeBytes: 512 << 10, Assoc: 4, LineBytes: 64, LatencyCycles: 10},
		MemoryLatency: 1000,
		MemoryPorts:   2,

		PhysRegs:        4096,
		LSQEntries:      4096,
		IntQueueEntries: 4096,
		FPQueueEntries:  4096,
		ROBEntries:      4096,

		// Default is the ROB baseline; the checkpoint-family parameter
		// blocks stay zero (Validate rejects parameters the selected
		// policy ignores — see policy.go). CheckpointDefault and
		// AdaptiveDefault fill in the paper's checkpoint parameters.
		Commit: CommitROB,

		IntAlu: FUConfig{Count: 4, Latency: 1, Repeat: 1},
		IntMul: FUConfig{Count: 2, Latency: 3, Repeat: 1},
		IntDiv: FUConfig{Count: 2, Latency: 20, Repeat: 20},
		FPAlu:  FUConfig{Count: 4, Latency: 2, Repeat: 1},

		VirtualRegisters: false,
		VirtualTags:      0,
	}
}

// CheckpointDefault returns the paper's Commit Out-of-Order processor
// configuration: checkpoint commit, 8 checkpoints with the paper's
// taking heuristics (branch>=64, cap 512, 64 stores), pseudo-ROB and
// issue queues of iqEntries, and a SLIQ of sliqEntries (0 disables the
// SLIQ and its wake parameters).
func CheckpointDefault(iqEntries, sliqEntries int) Config {
	c := Default()
	c.Commit = CommitCheckpoint
	c.ROBEntries = 0
	c.CommitWidth = 0 // checkpoint commit retires whole windows, not N/cycle
	c.Checkpoints = 8
	c.CheckpointBranchInterval = 64
	c.CheckpointMaxInterval = 512
	c.CheckpointMaxStores = 64
	c.IntQueueEntries = iqEntries
	c.FPQueueEntries = iqEntries
	c.PseudoROBEntries = iqEntries
	c.SLIQEntries = sliqEntries
	if sliqEntries > 0 {
		c.SLIQWakeDelay = 4
		c.SLIQWakeWidth = 4
	}
	return c
}

// AdaptiveDefault returns the adaptive-confidence checkpointing
// configuration: the checkpointed processor with the fixed
// branch-interval rule replaced by a 4K-entry, 4-bit saturating-counter
// confidence estimator (checkpoints are placed at low-confidence
// branches; the max-interval and max-stores safety rules remain).
func AdaptiveDefault(iqEntries, sliqEntries int) Config {
	c := CheckpointDefault(iqEntries, sliqEntries)
	c.Commit = CommitAdaptive
	c.CheckpointBranchInterval = 0 // replaced by the confidence rule
	c.AdaptiveConfidenceBits = 12
	c.AdaptiveConfidenceMax = 15
	c.AdaptiveConfidenceThreshold = 8
	return c
}

// OracleDefault returns the unbounded-window limit configuration: in
// order retirement with no commit-structure bound at all, over the
// pseudo-perfect substrate of Table 1 (4096-entry queues, LSQ and
// register file). It is the upper-bound reference of Figure 1-style
// limit studies.
func OracleDefault() Config {
	c := Default()
	c.Commit = CommitOracle
	c.ROBEntries = 0
	c.CommitWidth = 0 // oracle retirement is unbounded
	return c
}

// BaselineSized returns the conventional baseline with ROB and both
// instruction queues scaled to n entries (the reference lines of
// Figures 9 and 11).
func BaselineSized(n int) Config {
	c := Default()
	c.ROBEntries = n
	c.IntQueueEntries = n
	c.FPQueueEntries = n
	return c
}

// Validate checks the configuration for inconsistencies.
func (c Config) Validate() error {
	var errs []string
	add := func(format string, args ...any) {
		errs = append(errs, fmt.Sprintf(format, args...))
	}

	if c.FetchWidth < 1 {
		add("fetch width %d < 1", c.FetchWidth)
	}
	if c.IssueWidth < 1 {
		add("issue width %d < 1", c.IssueWidth)
	}
	if c.BranchPredictorBits < 1 || c.BranchPredictorBits > maxTableBits {
		add("branch predictor bits %d out of range [1,%d]", c.BranchPredictorBits, maxTableBits)
	}
	if c.BranchMispredictPenalty < 0 {
		add("negative mispredict penalty %d", c.BranchMispredictPenalty)
	}
	// Fixed slices, not maps, so one configuration always reports its
	// errors in one order (Table 1's).
	for _, cc := range []struct {
		name string
		cc   CacheConfig
	}{{"IL1", c.IL1}, {"DL1", c.DL1}, {"L2", c.L2}} {
		if err := cc.cc.Validate(); err != nil {
			add("%s: %v", cc.name, err)
		}
	}
	if c.MemoryLatency < 1 {
		add("memory latency %d < 1", c.MemoryLatency)
	}
	if c.MemoryLatency > maxMemoryLatency {
		add("memory latency %d > %d", c.MemoryLatency, maxMemoryLatency)
	}
	if c.MemoryPorts < 1 {
		add("memory ports %d < 1", c.MemoryPorts)
	}
	if c.PrefetchDegree < 0 || c.PrefetchDegree > 16 {
		add("prefetch degree %d outside [0,16]", c.PrefetchDegree)
	}
	if c.PhysRegs <= isa.NumLogical {
		add("physical registers %d leave none to rename into (need more than one per logical register)", c.PhysRegs)
	}
	if c.LSQEntries < 1 {
		add("LSQ entries %d < 1", c.LSQEntries)
	}
	if c.IntQueueEntries < 1 || c.FPQueueEntries < 1 {
		add("instruction queues must have at least one entry (int %d, fp %d)",
			c.IntQueueEntries, c.FPQueueEntries)
	}
	for _, f := range []struct {
		name string
		n    int
	}{
		{"physical registers", c.PhysRegs},
		{"LSQ entries", c.LSQEntries},
		{"integer queue entries", c.IntQueueEntries},
		{"FP queue entries", c.FPQueueEntries},
		{"ROB entries", c.ROBEntries},
		{"pseudo-ROB entries", c.PseudoROBEntries},
		{"SLIQ entries", c.SLIQEntries},
		{"virtual tags", c.VirtualTags},
	} {
		if f.n > maxEntries {
			add("%s %d > %d", f.name, f.n, maxEntries)
		}
	}
	// Per-policy validation: the selected commit policy checks its own
	// parameter block and rejects the blocks it ignores (see policy.go).
	switch c.Commit {
	case CommitROB:
		validateROB(c, add)
	case CommitCheckpoint:
		validateCheckpoint(c, add)
	case CommitAdaptive:
		validateAdaptive(c, add)
	case CommitOracle:
		validateOracle(c, add)
	default:
		add("unknown commit policy %q (valid: %s)", string(c.Commit), commitModeList())
	}
	for _, fc := range []struct {
		name string
		fc   FUConfig
	}{{"IntAlu", c.IntAlu}, {"IntMul", c.IntMul}, {"IntDiv", c.IntDiv}, {"FPAlu", c.FPAlu}} {
		if err := fc.fc.Validate(); err != nil {
			add("%s: %v", fc.name, err)
		}
	}
	if c.IntMul.Count != c.IntDiv.Count {
		add("IntMul and IntDiv share units; counts differ (%d vs %d)",
			c.IntMul.Count, c.IntDiv.Count)
	}

	if len(errs) == 0 {
		return nil
	}
	return errors.New("config: " + strings.Join(errs, "; "))
}

// Summary renders a short one-line description of the configuration.
func (c Config) Summary() string {
	mem := fmt.Sprintf("mem=%d", c.MemoryLatency)
	if c.PerfectL2 {
		mem = "mem=perfectL2"
	}
	switch c.Commit {
	case CommitCheckpoint:
		s := fmt.Sprintf("cooo iq=%d sliq=%d ckpts=%d %s",
			c.IntQueueEntries, c.SLIQEntries, c.Checkpoints, mem)
		if c.VirtualRegisters {
			s += fmt.Sprintf(" vtags=%d phys=%d", c.VirtualTags, c.PhysRegs)
		}
		return s
	case CommitAdaptive:
		s := fmt.Sprintf("adaptive iq=%d sliq=%d ckpts=%d conf<%d %s",
			c.IntQueueEntries, c.SLIQEntries, c.Checkpoints,
			c.AdaptiveConfidenceThreshold, mem)
		if c.VirtualRegisters {
			s += fmt.Sprintf(" vtags=%d phys=%d", c.VirtualTags, c.PhysRegs)
		}
		return s
	case CommitOracle:
		return fmt.Sprintf("oracle window=unbounded %s", mem)
	default:
		return fmt.Sprintf("baseline rob=%d iq=%d %s", c.ROBEntries, c.IntQueueEntries, mem)
	}
}

// String renders the configuration in the style of the paper's Table 1.
func (c Config) String() string {
	var b strings.Builder
	row := func(k, v string) { fmt.Fprintf(&b, "%-28s %s\n", k, v) }
	row("Issue policy", "Out-of-order")
	row("Fetch/Commit width", fmt.Sprintf("%d insns/cycle", c.FetchWidth))
	row("Branch predictor", fmt.Sprintf("%dK history gshare", 1<<(c.BranchPredictorBits-10)))
	row("Branch predictor penalty", fmt.Sprintf("%d cycles", c.BranchMispredictPenalty))
	cache := func(cc CacheConfig) string {
		return fmt.Sprintf("%d KB %d-way, %d byte line, %d cycles",
			cc.SizeBytes>>10, cc.Assoc, cc.LineBytes, cc.LatencyCycles)
	}
	row("I-L1", cache(c.IL1))
	row("D-L1", cache(c.DL1))
	if c.PerfectL2 {
		row("L2", "perfect")
	} else {
		row("L2", cache(c.L2))
	}
	row("Memory latency", fmt.Sprintf("%d cycles", c.MemoryLatency))
	row("Memory ports", fmt.Sprintf("%d", c.MemoryPorts))
	row("Physical registers", fmt.Sprintf("%d entries", c.PhysRegs))
	row("Load/Store queue", fmt.Sprintf("%d entries", c.LSQEntries))
	row("Integer queue", fmt.Sprintf("%d entries", c.IntQueueEntries))
	row("FP queue", fmt.Sprintf("%d entries", c.FPQueueEntries))
	switch c.Commit {
	case CommitROB:
		row("Reorder buffer", fmt.Sprintf("%d entries", c.ROBEntries))
	case CommitCheckpoint, CommitAdaptive:
		if c.Commit == CommitAdaptive {
			row("Commit", "out-of-order (adaptive confidence)")
			row("Confidence estimator", fmt.Sprintf("%d entries, counters 0..%d, low < %d",
				1<<c.AdaptiveConfidenceBits, c.AdaptiveConfidenceMax, c.AdaptiveConfidenceThreshold))
		} else {
			row("Commit", "out-of-order (checkpointed)")
		}
		row("Checkpoint table", fmt.Sprintf("%d entries", c.Checkpoints))
		row("Pseudo-ROB", fmt.Sprintf("%d entries", c.PseudoROBEntries))
		row("SLIQ", fmt.Sprintf("%d entries (wake delay %d, width %d)",
			c.SLIQEntries, c.SLIQWakeDelay, c.SLIQWakeWidth))
	case CommitOracle:
		row("Commit", "in-order, unbounded window (oracle limit)")
	}
	fu := func(f FUConfig) string {
		return fmt.Sprintf("%d (lat/rep %d/%d)", f.Count, f.Latency, f.Repeat)
	}
	row("Integer general units", fu(c.IntAlu))
	row("Integer mult units", fu(c.IntMul))
	row("Integer div units", fu(c.IntDiv))
	row("FP functional units", fu(c.FPAlu))
	if c.VirtualRegisters {
		row("Virtual tags", fmt.Sprintf("%d", c.VirtualTags))
	}
	return b.String()
}
