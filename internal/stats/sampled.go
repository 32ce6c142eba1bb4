package stats

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/branch"
	"repro/internal/lsq"
)

// Sampled summarises a SMARTS-style sampled run: how much of the
// dynamic stream was measured in detail, how much was functionally
// fast-forwarded, and the spread of the per-window IPC observations
// that turns the sampled mean into an error bar. Per-window sums stand
// in for a slice of window IPCs: the mean, variance and CLT interval all
// derive from them, so the block stays a fixed size.
type Sampled struct {
	// Windows counts measured detail windows.
	Windows uint64 `json:"windows"`
	// SampledInsts counts instructions committed inside measured detail
	// portions (what the run's Committed/Cycles counters cover).
	SampledInsts uint64 `json:"sampled_insts"`
	// WarmupInsts counts detailed-but-discarded warmup instructions.
	WarmupInsts uint64 `json:"warmup_insts"`
	// FastForwardInsts counts functionally fast-forwarded instructions.
	FastForwardInsts uint64 `json:"fast_forward_insts"`
	// TotalInsts is the total dynamic stream length covered (fast-forward
	// + warmup + measured).
	TotalInsts uint64 `json:"total_insts"`
	// SumIPC and SumIPC2 accumulate per-window IPC and its square, from
	// which the mean, variance and confidence interval derive.
	SumIPC  float64 `json:"sum_ipc"`
	SumIPC2 float64 `json:"sum_ipc2"`
}

// AddWindow records one measured window's IPC observation.
func (s *Sampled) AddWindow(ipc float64) {
	s.Windows++
	s.SumIPC += ipc
	s.SumIPC2 += ipc * ipc
}

// IPCMean returns the unweighted mean of the per-window IPCs (the
// SMARTS estimator; windows are equal-sized by construction, so this
// tracks the instruction-weighted Committed/Cycles closely).
func (s *Sampled) IPCMean() float64 {
	if s.Windows == 0 {
		return 0
	}
	return s.SumIPC / float64(s.Windows)
}

// IPCVariance returns the sample variance of the per-window IPCs
// (n-1 denominator; 0 with fewer than two windows).
func (s *Sampled) IPCVariance() float64 {
	n := float64(s.Windows)
	if s.Windows < 2 {
		return 0
	}
	v := (s.SumIPC2 - s.SumIPC*s.SumIPC/n) / (n - 1)
	if v < 0 {
		return 0 // floating-point cancellation on near-constant windows
	}
	return v
}

// IPCCI95 returns the half-width of the 95% interval on the mean
// per-window IPC: the CLT term 1.96 * sqrt(variance / windows), floored
// at 1.5% of the mean. The floor is the protocol's non-sampling-bias
// allowance: window variance only measures how much the windows
// disagree with each other, not how much the whole protocol disagrees
// with full detail (warmup truncation, functional fast-forward eliding
// wrong-path cache traffic), and SMARTS-class samplers validate that
// systematic error at around a percent. On a perfectly homogeneous
// workload every window reports the same IPC and the CLT term collapses
// toward zero — an interval claiming four-digit precision the protocol
// does not have; the floor keeps the reported interval honest there.
func (s *Sampled) IPCCI95() float64 {
	if s.Windows < 2 {
		return 0
	}
	ci := 1.96 * math.Sqrt(s.IPCVariance()/float64(s.Windows))
	if floor := 0.015 * math.Abs(s.IPCMean()); ci < floor {
		ci = floor
	}
	return ci
}

// DetailFraction returns the share of the covered stream simulated in
// detail (measured + warmup), the knob that trades accuracy for speed.
func (s *Sampled) DetailFraction() float64 {
	if s.TotalInsts == 0 {
		return 0
	}
	return float64(s.SampledInsts+s.WarmupInsts) / float64(s.TotalInsts)
}

// String renders a one-line summary.
func (s *Sampled) String() string {
	return fmt.Sprintf("windows=%d sampled=%d warmup=%d ff=%d total=%d ipc=%.3f±%.3f",
		s.Windows, s.SampledInsts, s.WarmupInsts, s.FastForwardInsts, s.TotalInsts,
		s.IPCMean(), s.IPCCI95())
}

// AddInterval folds into r the interval between two Results snapshots
// of one CPU run: full, and warm, captured at an earlier commit point of
// the same run. A sampled run adds each window this way, discarding its
// warmup (and, because the persistent predictor/BTB/cache substrate
// accumulates across windows, everything before the window too).
// Counters add full − warm. Extremes (MaxInflight, LongestSkip, "max_"
// policy keys) keep the larger of r's and full's value, the interval's
// own being unrecoverable; a "max_" key is stored only when it exceeds
// the value held. MeanInflight becomes the cycle-weighted mean of r's
// and the interval's. r adopts full's Name when it has none. Snapshots
// are plain CPU runs: occupancy histograms are not subtractable and
// sampled runs never collect them, and neither snapshot carries a
// Sampled block.
func (r *Results) AddInterval(full, warm Results) {
	if r.Name == "" {
		r.Name = full.Name
	}
	cycles := full.Cycles - warm.Cycles
	var mean float64
	if cycles > 0 {
		mean = (full.MeanInflight*float64(full.Cycles) - warm.MeanInflight*float64(warm.Cycles)) / float64(cycles)
	}
	if total := r.Cycles + cycles; total > 0 {
		r.MeanInflight = (r.MeanInflight*float64(r.Cycles) + mean*float64(cycles)) / float64(total)
	}
	r.Cycles += cycles
	r.Committed += full.Committed - warm.Committed
	r.Fetched += full.Fetched - warm.Fetched
	r.Dispatched += full.Dispatched - warm.Dispatched
	r.Issued += full.Issued - warm.Issued
	r.Replayed += full.Replayed - warm.Replayed
	r.Rollbacks += full.Rollbacks - warm.Rollbacks
	r.PseudoROBRecoveries += full.PseudoROBRecoveries - warm.PseudoROBRecoveries
	r.CheckpointsTaken += full.CheckpointsTaken - warm.CheckpointsTaken
	r.CheckpointsCommitted += full.CheckpointsCommitted - warm.CheckpointsCommitted
	r.CheckpointStallCycles += full.CheckpointStallCycles - warm.CheckpointStallCycles
	r.SLIQMoved += full.SLIQMoved - warm.SLIQMoved
	r.SLIQWoken += full.SLIQWoken - warm.SLIQWoken
	r.SkippedCycles += full.SkippedCycles - warm.SkippedCycles
	r.SkipEvents += full.SkipEvents - warm.SkipEvents
	r.LongestSkip = max(r.LongestSkip, full.LongestSkip)

	r.Branch.Predictions += full.Branch.Predictions - warm.Branch.Predictions
	r.Branch.Mispredicts += full.Branch.Mispredicts - warm.Branch.Mispredicts

	if full.BTB != nil {
		if r.BTB == nil {
			r.BTB = &branch.BTBStats{}
		}
		var w branch.BTBStats
		if warm.BTB != nil {
			w = *warm.BTB
		}
		r.BTB.Lookups += full.BTB.Lookups - w.Lookups
		r.BTB.Hits += full.BTB.Hits - w.Hits
		r.BTB.BadTargets += full.BTB.BadTargets - w.BadTargets
	}
	if full.LSQ != nil {
		if r.LSQ == nil {
			r.LSQ = &lsq.Stats{}
		}
		var w lsq.Stats
		if warm.LSQ != nil {
			w = *warm.LSQ
		}
		r.LSQ.Loads += full.LSQ.Loads - w.Loads
		r.LSQ.Stores += full.LSQ.Stores - w.Stores
		r.LSQ.Forwards += full.LSQ.Forwards - w.Forwards
		r.LSQ.ForwardStalls += full.LSQ.ForwardStalls - w.ForwardStalls
		r.LSQ.StoresDrained += full.LSQ.StoresDrained - w.StoresDrained
		r.LSQ.FullStalls += full.LSQ.FullStalls - w.FullStalls
	}

	r.Mem.IL1.Accesses += full.Mem.IL1.Accesses - warm.Mem.IL1.Accesses
	r.Mem.IL1.Misses += full.Mem.IL1.Misses - warm.Mem.IL1.Misses
	r.Mem.DL1.Accesses += full.Mem.DL1.Accesses - warm.Mem.DL1.Accesses
	r.Mem.DL1.Misses += full.Mem.DL1.Misses - warm.Mem.DL1.Misses
	r.Mem.L2.Accesses += full.Mem.L2.Accesses - warm.Mem.L2.Accesses
	r.Mem.L2.Misses += full.Mem.L2.Misses - warm.Mem.L2.Misses
	r.Mem.MemAccesses += full.Mem.MemAccesses - warm.Mem.MemAccesses
	r.Mem.MergedMisses += full.Mem.MergedMisses - warm.Mem.MergedMisses
	r.Mem.StoreWrites += full.Mem.StoreWrites - warm.Mem.StoreWrites
	r.Mem.Prefetches += full.Mem.Prefetches - warm.Mem.Prefetches

	for c := range r.Retire {
		r.Retire[c] += full.Retire[c] - warm.Retire[c]
	}
	if len(full.Policy) > 0 {
		if r.Policy == nil {
			r.Policy = make(map[string]uint64, len(full.Policy))
		}
		for k, v := range full.Policy {
			if policyCounterIsMax(k) {
				if v > r.Policy[k] {
					r.Policy[k] = v
				}
			} else {
				r.Policy[k] += v - warm.Policy[k]
			}
		}
	}
	r.MaxInflight = max(r.MaxInflight, full.MaxInflight)
}

// policyCounterIsMax reports whether a Policy key names a maximum-style
// metric ("<policy>.max_<metric>", e.g. "oracle.max_retire_burst"):
// summing two maxima would fabricate a value no run ever observed.
func policyCounterIsMax(key string) bool {
	if i := strings.IndexByte(key, '.'); i >= 0 {
		key = key[i+1:]
	}
	return strings.HasPrefix(key, "max_")
}
