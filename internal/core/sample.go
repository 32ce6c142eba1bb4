package core

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/trace"
)

// sampleState is the long-lived microarchitectural substrate a sampled
// run threads through its detailed windows: the state that takes far
// longer than one window to converge (cache contents, and the front
// end's predictor tables, BTB targets and JRS confidence counters) and
// is therefore kept alive and functionally warmed across the
// fast-forward gaps, while short-lived pipeline state (queues, rename,
// in-flight misses, rollback-resolved branch positions) is rebuilt per
// window and re-converged by the discarded warmup portion.
type sampleState struct {
	hier *mem.Hierarchy
	frontEnd
}

// newSampleState builds the persistent substrate for sampling st exactly
// as a cold CPU would: an untrained front end and a hierarchy warmed
// through warmHierarchy from warm, a second stream over the same
// workload (window CPUs adopt both and skip warming). A program warms
// to its halt, like a full-detail run over its materialised trace; a
// synthetic stream never ends, so it warms as far as a materialised
// trace of the budget reaches.
func newSampleState(cfg config.Config, st, warm *trace.InstStream, budget uint64) (*sampleState, error) {
	ss := &sampleState{hier: mem.NewHierarchy(cfg), frontEnd: newFrontEnd(cfg, st.Code())}
	limit := uint64(0)
	if st.Code() == nil {
		limit = uint64(trace.LenFor(budget))
	}
	if err := warmHierarchy(ss.hier, warm, limit); err != nil {
		return nil, err
	}
	return ss, nil
}

// fastForward functionally executes up to n instructions from the
// stream: instruction-line and data accesses warm the caches quietly
// (no stats), branches train the predictor, confidence estimator and
// BTB. Returns how many instructions were consumed (< n only at end of
// stream). The predictor's Update counters do move here, but windows
// measure deltas between two snapshots taken inside the detailed
// portion, so fast-forward training never leaks into results.
func (ss *sampleState) fastForward(cfg config.Config, st *trace.InstStream, n uint64) (uint64, error) {
	var done uint64
	lastLine := ^uint64(0)
	for done < n {
		chunk := n - done
		if chunk > 8192 {
			chunk = 8192
		}
		insts, err := st.Peek(int(chunk))
		if err != nil {
			return done, err
		}
		if len(insts) == 0 {
			return done, nil
		}
		for i := range insts {
			in := &insts[i]
			if line := in.PC &^ (warmLineBytes - 1); line != lastLine {
				ss.hier.PrimeFetch(line)
				lastLine = line
			}
			if in.Op.IsMem() {
				ss.hier.WarmData(in.Addr)
			}
			if in.Op == isa.Branch {
				if !cfg.PerfectBranchPrediction {
					correct := ss.pred.Predict(in.PC) == in.Taken
					ss.pred.Update(in.PC, in.Taken)
					if ss.conf != nil {
						ss.conf.Update(in.PC, correct)
					}
				}
				if ss.btb != nil && in.Taken {
					ss.btb.Install(in.PC, in.Target)
				}
			}
		}
		st.Skip(len(insts))
		done += uint64(len(insts))
	}
	return done, nil
}

// RunSampled simulates the stream under the SMARTS sampling protocol:
// per period, simulate Warmup+Detail instructions in full pipeline
// detail on a fresh window CPU that adopts the persistent hierarchy and
// front end, keeping only the post-warmup portion in the statistics
// (the interval between two snapshots of the same CPU), then
// fast-forward the rest of the period with functional warming only.
// warm is a second, unconsumed stream over the same workload used for
// the one-time whole-footprint cache warm (see warmHierarchy).
// opt.MaxInsts bounds the total stream coverage and must be set for
// synthetic workloads (their streams never end); program streams also
// stop when the program halts. The returned Results carry detail-window
// statistics only, plus the Sampled block with the per-window IPC
// spread.
func RunSampled(cfg config.Config, st, warm *trace.InstStream, sample trace.SampleSpec, opt RunOptions) (stats.Results, error) {
	if err := cfg.Validate(); err != nil {
		return stats.Results{}, err
	}
	if !sample.Enabled() {
		return stats.Results{}, fmt.Errorf("core: RunSampled without a sample spec")
	}
	if err := sample.Validate(); err != nil {
		return stats.Results{}, err
	}
	if opt.CollectOccupancy {
		return stats.Results{}, fmt.Errorf("core: occupancy collection is per-cycle state and cannot be sampled")
	}
	budget := opt.MaxInsts
	if budget == 0 && st.Code() == nil {
		return stats.Results{}, fmt.Errorf("core: sampled synthetic workload %q needs an instruction budget (the stream is unbounded)", st.Name())
	}
	if warm == nil {
		return stats.Results{}, fmt.Errorf("core: RunSampled needs a warm stream (a second stream over the same workload)")
	}

	ss, err := newSampleState(cfg, st, warm, budget)
	if err != nil {
		return stats.Results{}, err
	}
	arena := NewArena()
	ff := sample.Period - sample.Warmup - sample.Detail

	// Each period opens with its detailed window and fast-forwards the
	// remainder: the first window then starts at stream position zero,
	// so a program's startup phase is sampled in proportion like every
	// other phase instead of hiding inside the first gap. Gap lengths
	// are deterministically staggered around the nominal fast-forward
	// distance so windows cannot alias against periodic program phases
	// (systematic sampling with a fixed stride would measure the same
	// loop position every period and report a confidently wrong mean).
	var total stats.Results
	var samp stats.Sampled
	winIdx := uint64(0)
	for {
		remaining := ^uint64(0)
		if budget > 0 {
			pos := uint64(st.Pos())
			if pos >= budget {
				break
			}
			remaining = budget - pos
		}
		wd := sample.Warmup + sample.Detail
		if wd > remaining {
			wd = remaining
		}
		winLen := trace.LenFor(wd)
		win, err := st.Window(winLen)
		if err != nil {
			return stats.Results{}, err
		}
		if win.Len() == 0 {
			break
		}
		cpu, err := newCPU(cfg, win, ss.hier, arena, &ss.frontEnd)
		if err != nil {
			return stats.Results{}, err
		}
		runOpt := RunOptions{
			MaxCycles:      opt.MaxCycles,
			WatchdogCycles: opt.WatchdogCycles,
			DisableSkip:    opt.DisableSkip,
		}
		var warmRes stats.Results
		warmTarget := sample.Warmup
		if winIdx == 0 {
			// The first window starts at stream position zero, where the
			// window CPU's state — cold pipeline, untrained predictor,
			// warmed caches — is identical to the full-detail reference's.
			// There is nothing stale to re-establish, and discarding a
			// warmup here would throw away the program's genuine startup
			// transient (predictor training, first wrong-path misses)
			// that full detail measures; window one is measured whole.
			warmTarget = 0
		}
		if warmTarget > wd {
			warmTarget = wd
		}
		if warmTarget > 0 {
			runOpt.MaxInsts = warmTarget
			warmRes = cpu.Run(runOpt)
		}
		runOpt.MaxInsts = wd
		fullRes := cpu.Run(runOpt)
		cpu.Recycle(arena)
		st.Skip(int(fullRes.Committed))

		samp.WarmupInsts += warmRes.Committed
		committed, cycles := fullRes.Committed-warmRes.Committed, fullRes.Cycles-warmRes.Cycles
		if committed > 0 && cycles > 0 {
			samp.SampledInsts += committed
			samp.AddWindow(float64(committed) / float64(cycles))
			total.AddInterval(fullRes, warmRes)
		}
		// In-flight fill timestamps are absolute cycles of the finished
		// window's clock.
		ss.hier.Settle()
		if fullRes.Committed < wd {
			break // window ran out of stream: the program halted
		}

		remaining -= fullRes.Committed
		skip := ff
		if quarter := ff / 4; quarter > 0 {
			// Knuth multiplicative stagger: ff ± 25%, deterministic in
			// the window index so identical points replay identically.
			skip = ff - quarter + (winIdx*2654435761)%(2*quarter)
		}
		winIdx++
		if skip > remaining {
			skip = remaining
		}
		if skip == 0 {
			continue
		}
		skipped, err := ss.fastForward(cfg, st, skip)
		if err != nil {
			return stats.Results{}, err
		}
		samp.FastForwardInsts += skipped
		if skipped < skip {
			break // stream ended inside the gap
		}
	}
	samp.TotalInsts = uint64(st.Pos())
	total.Sampled = &samp
	if total.Name == "" {
		total.Name = fmt.Sprintf("%s/%s", cfg.Commit, st.Name())
	}
	return total, nil
}
