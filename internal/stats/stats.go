// Package stats collects and summarises simulation measurements: IPC,
// window-occupancy distributions (Figures 7 and 11 of the paper),
// pseudo-ROB retirement breakdowns (Figure 12), and the usual cache and
// branch-predictor counters.
package stats

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/branch"
	"repro/internal/lsq"
	"repro/internal/mem"
)

// RetireClass classifies an instruction at the moment it is retired from
// the pseudo-ROB, matching the six sections of Figure 12 (bottom to top).
type RetireClass int

// Retirement classes.
const (
	// RetireMoved: not yet issued and dependent on a long-latency load;
	// moved from the issue queue into the SLIQ.
	RetireMoved RetireClass = iota
	// RetireFinished: execution already complete.
	RetireFinished
	// RetireShortLat: not yet executed but short-latency (stays in IQ).
	RetireShortLat
	// RetireFinishedLoad: a load that finished or hit in L1/L2.
	RetireFinishedLoad
	// RetireLongLatLoad: a load that missed in L2 (the problem makers).
	RetireLongLatLoad
	// RetireStore: a store instruction.
	RetireStore

	NumRetireClasses
)

var retireNames = [NumRetireClasses]string{
	"Moved", "Finished", "Short Lat.", "Finished Loads", "Long Lat. Loads", "Stores",
}

// String implements fmt.Stringer.
func (c RetireClass) String() string {
	if c >= 0 && c < NumRetireClasses {
		return retireNames[c]
	}
	return fmt.Sprintf("retire(%d)", int(c))
}

// Breakdown counts pseudo-ROB retirements per class.
type Breakdown [NumRetireClasses]uint64

// Total returns the number of classified retirements.
func (b Breakdown) Total() uint64 {
	var t uint64
	for _, v := range b {
		t += v
	}
	return t
}

// Fraction returns the share of class c, or 0 for an empty breakdown.
func (b Breakdown) Fraction(c RetireClass) float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return float64(b[c]) / float64(t)
}

// String renders percentages in Figure 12's order.
func (b Breakdown) String() string {
	var sb strings.Builder
	for c := RetireClass(0); c < NumRetireClasses; c++ {
		if c > 0 {
			sb.WriteString("  ")
		}
		fmt.Fprintf(&sb, "%s %.1f%%", c, 100*b.Fraction(c))
	}
	return sb.String()
}

// Occupancy accumulates a per-cycle histogram of window occupancy
// ("in-flight instructions") together with the live floating-point
// instruction counts split into blocked-long and blocked-short, exactly
// the data behind Figure 7. The histogram form makes percentile queries
// exact while keeping the per-cycle cost to three array increments.
type Occupancy struct {
	count    []uint64 // samples with this in-flight count
	sumLong  []uint64 // total blocked-long live FP insts at this count
	sumShort []uint64
	samples  uint64
	sumInfl  uint64
	max      int
}

// NewOccupancy builds a tracker for in-flight counts up to maxInflight.
func NewOccupancy(maxInflight int) *Occupancy {
	if maxInflight < 1 {
		panic(fmt.Sprintf("stats: maxInflight %d < 1", maxInflight))
	}
	n := maxInflight + 1
	return &Occupancy{
		count:    make([]uint64, n),
		sumLong:  make([]uint64, n),
		sumShort: make([]uint64, n),
	}
}

// SampleN records n cycles that all observed the same occupancy. Counts
// beyond the tracker's capacity are clamped to the top bucket. The
// cycle loop records each cycle with n = 1; the event-driven clock skip
// replays the quiescent cycle's constant sample for every cycle it
// elides, so the histogram is bit-identical to the cycle-by-cycle run.
func (o *Occupancy) SampleN(n uint64, inflight, liveLong, liveShort int) {
	if n == 0 {
		return
	}
	if inflight < 0 {
		inflight = 0
	}
	if inflight >= len(o.count) {
		inflight = len(o.count) - 1
	}
	o.count[inflight] += n
	o.sumLong[inflight] += n * uint64(liveLong)
	o.sumShort[inflight] += n * uint64(liveShort)
	o.samples += n
	o.sumInfl += n * uint64(inflight)
	if inflight > o.max {
		o.max = inflight
	}
}

// Samples returns the number of recorded cycles.
func (o *Occupancy) Samples() uint64 { return o.samples }

// Mean returns the average in-flight instruction count (Figure 11's
// metric).
func (o *Occupancy) Mean() float64 {
	if o.samples == 0 {
		return 0
	}
	return float64(o.sumInfl) / float64(o.samples)
}

// Max returns the largest observed in-flight count.
func (o *Occupancy) Max() int { return o.max }

// MergeInto adds this tracker's histogram into dst (suite averaging).
// dst must have capacity at least as large as o's.
func (o *Occupancy) MergeInto(dst *Occupancy) {
	if len(dst.count) < len(o.count) {
		panic("stats: MergeInto destination too small")
	}
	for i := range o.count {
		dst.count[i] += o.count[i]
		dst.sumLong[i] += o.sumLong[i]
		dst.sumShort[i] += o.sumShort[i]
	}
	dst.samples += o.samples
	dst.sumInfl += o.sumInfl
	if o.max > dst.max {
		dst.max = o.max
	}
}

// occupancyJSON is the wire form of Occupancy: the three histograms
// fully determine the derived fields (samples, mean, max).
type occupancyJSON struct {
	Count    []uint64 `json:"count"`
	SumLong  []uint64 `json:"sum_long"`
	SumShort []uint64 `json:"sum_short"`
}

// MarshalJSON implements json.Marshaler.
func (o *Occupancy) MarshalJSON() ([]byte, error) {
	return json.Marshal(occupancyJSON{Count: o.count, SumLong: o.sumLong, SumShort: o.sumShort})
}

// UnmarshalJSON implements json.Unmarshaler, recomputing the derived
// fields from the histograms.
func (o *Occupancy) UnmarshalJSON(data []byte) error {
	var w occupancyJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if len(w.Count) == 0 || len(w.SumLong) != len(w.Count) || len(w.SumShort) != len(w.Count) {
		return fmt.Errorf("stats: malformed occupancy histogram (%d/%d/%d buckets)",
			len(w.Count), len(w.SumLong), len(w.SumShort))
	}
	o.count, o.sumLong, o.sumShort = w.Count, w.SumLong, w.SumShort
	o.samples, o.sumInfl, o.max = 0, 0, 0
	for i, c := range w.Count {
		o.samples += c
		o.sumInfl += c * uint64(i)
		if c > 0 {
			o.max = i
		}
	}
	return nil
}

// Percentile returns the smallest in-flight count x such that at least
// p (0 < p <= 1) of the sampled cycles had occupancy <= x. This is the
// "25% of the time the ROB had less than N instructions" statistic of
// Figure 7.
func (o *Occupancy) Percentile(p float64) int {
	if o.samples == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	need := uint64(p * float64(o.samples))
	if need == 0 {
		need = 1
	}
	var cum uint64
	for i, c := range o.count {
		cum += c
		if cum >= need {
			return i
		}
	}
	return len(o.count) - 1
}

// LiveAtPercentile returns the average blocked-long and blocked-short
// live FP instruction counts over the cycles whose occupancy falls at or
// below the p'th percentile, which is how Figure 7 stacks its bars.
func (o *Occupancy) LiveAtPercentile(p float64) (long, short float64) {
	cut := o.Percentile(p)
	var n, sl, ss uint64
	for i := 0; i <= cut; i++ {
		n += o.count[i]
		sl += o.sumLong[i]
		ss += o.sumShort[i]
	}
	if n == 0 {
		return 0, 0
	}
	return float64(sl) / float64(n), float64(ss) / float64(n)
}

// Results aggregates everything a single simulation run produces.
type Results struct {
	// Name labels the configuration (for reports).
	Name string

	// Cycles is the simulated cycle count.
	Cycles int64
	// Committed is the number of architecturally retired instructions.
	Committed uint64
	// Fetched counts all fetched instructions, including re-fetches
	// after rollbacks. Fetch and dispatch are one stage in this model
	// (an instruction is fetched only once every dispatch check passed),
	// so it always equals Dispatched.
	Fetched uint64
	// Dispatched and Issued count pipeline activity.
	Dispatched uint64
	Issued     uint64
	// Replayed counts instructions squashed by checkpoint rollbacks and
	// later re-executed (pure overhead of coarse recovery).
	Replayed uint64

	// Rollbacks counts checkpoint rollbacks (mispredicted branches that
	// had already left the pseudo-ROB, plus exceptions).
	Rollbacks uint64
	// PseudoROBRecoveries counts branch mispredictions recovered from
	// the pseudo-ROB without a checkpoint rollback.
	PseudoROBRecoveries uint64
	// CheckpointsTaken and CheckpointsCommitted count checkpoint-table
	// activity.
	CheckpointsTaken     uint64
	CheckpointsCommitted uint64
	// CheckpointStallCycles counts cycles fetch was stalled because the
	// checkpoint table was full.
	CheckpointStallCycles uint64

	// SLIQMoved counts instructions moved from the issue queues into
	// the SLIQ; SLIQWoken counts re-insertions back into the queues.
	SLIQMoved uint64
	SLIQWoken uint64

	// SkippedCycles, SkipEvents and LongestSkip measure the event-driven
	// clock skip (a simulator-speed diagnostic, not a model quantity:
	// every other counter is bit-identical with skipping disabled).
	// SkippedCycles counts cycles elided by clock jumps — they are
	// included in Cycles — SkipEvents counts the jumps, and LongestSkip
	// is the largest single jump. All three are omitted from the JSON
	// encoding when zero, so runs that never skip (and cached results
	// recorded before the counters existed) keep their encodings
	// byte-identical.
	SkippedCycles uint64 `json:",omitempty"`
	SkipEvents    uint64 `json:",omitempty"`
	LongestSkip   uint64 `json:",omitempty"`

	// Branch and Mem expose substrate counters.
	Branch branch.Stats
	Mem    mem.HierarchyStats

	// BTB carries branch-target-buffer counters and LSQ the load/store
	// queue counters. Both are populated only for program-backed
	// workloads (synthetic traces have no real PCs for a BTB to key on,
	// and their results predate these fields); nil pointers are omitted
	// from JSON so synthetic encodings — and every cached result — stay
	// byte-identical.
	BTB *branch.BTBStats `json:",omitempty"`
	LSQ *lsq.Stats       `json:",omitempty"`

	// Retire is the pseudo-ROB retirement breakdown (checkpoint family).
	Retire Breakdown

	// Policy carries commit-policy-specific counters, keyed
	// "<policy>.<metric>" (e.g. "adaptive.low_confidence_branches").
	// Policies that define no extra counters leave it nil. AddInterval
	// folds per key: metrics whose name starts with "max_" (after the
	// policy prefix) take the maximum, everything else sums. JSON
	// encodes maps with sorted keys, so the canonical encoding (and
	// Results.Equal) stays deterministic.
	Policy map[string]uint64 `json:",omitempty"`

	// MeanInflight and MaxInflight summarise window occupancy.
	MeanInflight float64
	MaxInflight  int
	// Occ carries the full occupancy distribution when the run was
	// configured to collect it (Figure 7); nil otherwise.
	Occ *Occupancy

	// Sampled summarises the sampling protocol of a sampled run (nil —
	// and omitted from JSON, keeping full-detail encodings byte-identical
	// — for full-detail runs). When present, every other counter in
	// Results covers only the measured detail windows.
	Sampled *Sampled `json:",omitempty"`
}

// Equal reports whether two result sets are identical. Comparison goes
// through the canonical JSON encoding, which covers the occupancy
// histogram a plain struct compare cannot (Occ is a pointer) and is
// exactly the equality the content-addressed result cache promises:
// a cache hit returns results byte-identical to recomputation.
func (r Results) Equal(o Results) bool {
	a, aerr := json.Marshal(r)
	b, berr := json.Marshal(o)
	return aerr == nil && berr == nil && bytes.Equal(a, b)
}

// IPC returns committed instructions per cycle.
func (r Results) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Committed) / float64(r.Cycles)
}

// ReplayRate returns replayed (thrown-away) instructions per committed
// instruction, a measure of rollback overhead.
func (r Results) ReplayRate() float64 {
	if r.Committed == 0 {
		return 0
	}
	return float64(r.Replayed) / float64(r.Committed)
}

// CheckIdentities checks the counter identities that every full-detail
// result satisfies. Fetch and dispatch are one stage, so they count
// alike; nothing issues, commits or is replayed without dispatching, and
// nothing commits, wakes from the SLIQ or is classified at extraction
// without being taken, moved or dispatched first. A sampled result is
// exempt: its measured windows can, for one, wake SLIQ residents that
// the warm-up before them moved.
func (r Results) CheckIdentities() error {
	if r.Sampled != nil {
		return nil
	}
	switch {
	case r.Fetched != r.Dispatched:
		return fmt.Errorf("%s: fetched %d, dispatched %d", r.Name, r.Fetched, r.Dispatched)
	case r.Issued > r.Dispatched:
		return fmt.Errorf("%s: issued %d > dispatched %d", r.Name, r.Issued, r.Dispatched)
	case r.Committed+r.Replayed > r.Dispatched:
		return fmt.Errorf("%s: committed %d + replayed %d > dispatched %d", r.Name, r.Committed, r.Replayed, r.Dispatched)
	case r.CheckpointsCommitted > r.CheckpointsTaken:
		return fmt.Errorf("%s: %d checkpoints committed, %d taken", r.Name, r.CheckpointsCommitted, r.CheckpointsTaken)
	case r.SLIQWoken > r.SLIQMoved:
		return fmt.Errorf("%s: %d SLIQ wakes, %d moves", r.Name, r.SLIQWoken, r.SLIQMoved)
	case r.Retire.Total() > r.Dispatched:
		return fmt.Errorf("%s: %d extractions classified, %d dispatched", r.Name, r.Retire.Total(), r.Dispatched)
	case r.Occ != nil && r.Occ.Samples() != uint64(r.Cycles):
		return fmt.Errorf("%s: %d occupancy samples over %d cycles", r.Name, r.Occ.Samples(), r.Cycles)
	}
	return nil
}

// String renders a one-line summary.
func (r Results) String() string {
	return fmt.Sprintf("%s: IPC=%.3f cycles=%d committed=%d inflight(avg)=%.0f mispred=%.2f%% L2miss=%.1f%%",
		r.Name, r.IPC(), r.Cycles, r.Committed, r.MeanInflight,
		100*r.Branch.MispredictRate(), 100*r.Mem.L2.MissRate())
}
