// Package sim is the run engine underneath the experiment harness: it
// executes declarative simulation points over a bounded worker pool and
// returns results in submission order with real error propagation.
//
// Every figure of the paper's evaluation is a grid of (mechanism ×
// window size × L2 latency × workload) points; each figure flattens its
// grid into a []RunSpec and submits it to Sweep once. Traces are
// immutable (core.CPU.Run never writes to its *trace.Trace, guarded by
// a test), so a single generated trace is shared read-only by every
// concurrently running CPU that sweeps over it.
package sim

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/keyed"
	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/trace"
)

// RunSpec is one declarative simulation point: a configuration bound to
// a workload trace and an instruction budget.
type RunSpec struct {
	// Name labels the workload (progress lines and run records).
	Name string
	// Config is the processor configuration; validated by core.New.
	Config config.Config
	// Trace is the workload. It is shared read-only across concurrent
	// runs — generate once, submit many.
	Trace *trace.Trace
	// Insts is the committed-instruction target (0 runs the full trace).
	Insts uint64
	// CollectOccupancy enables the full occupancy distribution
	// (Figure 7).
	CollectOccupancy bool
	// DisableSkip forces cycle-by-cycle simulation (see
	// core.RunOptions.DisableSkip). Results are bit-identical either
	// way, so the knob never enters result fingerprints or the remote
	// job encoding — it is a local A/B debugging aid only.
	DisableSkip bool
	// Sample, when enabled, runs the point under the SMARTS sampling
	// protocol (core.RunSampled) over the workload's segment stream
	// instead of simulating every instruction. Insts then bounds the
	// total stream coverage (and is mandatory for synthetic workloads,
	// whose streams are unbounded). Sampling changes what is measured,
	// so it is part of the point's fingerprint identity — unlike
	// DisableSkip (see Fingerprint).
	Sample trace.SampleSpec
}

// Options tunes a Sweep.
type Options struct {
	// Workers bounds the worker pool; <= 0 uses GOMAXPROCS.
	Workers int
	// Progress, when non-nil, receives one line per completed run
	// together with the sweep's completion count: done runs out of
	// total (done counts this run). Calls are serialised but arrive in
	// completion order, not spec order.
	Progress func(done, total int, line string)
	// OnResult, when non-nil, receives every completed run. Calls are
	// serialised; order follows completion, not spec order.
	OnResult func(spec RunSpec, res stats.Results)
}

// ProgressLine renders the one-line completion report for a finished
// spec. The local sweep and the remote service client both use it, so
// -server progress output matches in-process output byte for byte.
func ProgressLine(spec RunSpec, res stats.Results) string {
	return fmt.Sprintf("  %-10s %-34s IPC=%.3f", spec.Name, spec.Config.Summary(), res.IPC())
}

// Run executes a single spec synchronously. Construction failures and
// simulator panics (e.g. the commit watchdog) come back as errors
// labelled with the spec, never as process-killing panics — a worker
// pool must survive one bad point.
func Run(spec RunSpec) (stats.Results, error) {
	res, _, err := runSpec(spec, nil, nil)
	return res, err
}

// RunForked executes one spec against a fork of donor's warmed cache
// state instead of replaying the warm-up footprint (see core.WarmDonor
// and core.NewForked). The donor is only read; it may serve concurrent
// RunForked calls. Error handling matches Run.
func RunForked(spec RunSpec, donor *mem.Hierarchy) (stats.Results, error) {
	res, _, err := runSpec(spec, func() (*mem.Hierarchy, error) { return donor, nil }, nil)
	return res, err
}

// runSpec is the worker body shared by the cold and forked paths: a nil
// getDonor runs cold (build and warm a private hierarchy), otherwise
// the CPU forks the donor's warmed cache state. arena, when non-nil, is
// the calling worker's record arena (single-owner). refused reports
// core.CPU.SLIQRefused for a full-detail run.
func runSpec(spec RunSpec, getDonor func() (*mem.Hierarchy, error), arena *core.Arena) (res stats.Results, refused bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sim: %s (%s): panic: %v", spec.Name, spec.Config.Summary(), r)
		}
	}()
	if spec.Sample.Enabled() {
		// Sampled points stream; they neither need nor use a warm donor
		// (core.RunSampled warms its persistent substrate from a second
		// stream over the workload).
		res, err = runSampled(spec)
		if err != nil {
			err = fmt.Errorf("sim: %s (%s): %w", spec.Name, spec.Config.Summary(), err)
		}
		return res, false, err
	}
	var cpu *core.CPU
	if getDonor == nil {
		cpu, err = core.New(spec.Config, spec.Trace)
	} else {
		var donor *mem.Hierarchy
		if donor, err = getDonor(); err == nil {
			cpu, err = core.NewForked(spec.Config, spec.Trace, donor, arena)
		}
	}
	if err != nil {
		return stats.Results{}, false, fmt.Errorf("sim: %s (%s): %w", spec.Name, spec.Config.Summary(), err)
	}
	res = cpu.Run(core.RunOptions{
		MaxInsts:         spec.Insts,
		CollectOccupancy: spec.CollectOccupancy,
		DisableSkip:      spec.DisableSkip,
	})
	refused = cpu.SLIQRefused()
	cpu.Recycle(arena)
	return res, refused, nil
}

// runSampled executes a sampled point: open the workload's segment
// stream — from the recipe when the trace is a recipe-only handle (the
// normal sampled path, which never materialises), or over the slice of
// an already-materialised trace — and drive it through core.RunSampled.
func runSampled(spec RunSpec) (stats.Results, error) {
	if err := spec.Sample.Validate(); err != nil {
		return stats.Results{}, err
	}
	if spec.CollectOccupancy {
		return stats.Results{}, fmt.Errorf("occupancy collection cannot be sampled")
	}
	if spec.Trace == nil {
		return stats.Results{}, fmt.Errorf("no trace")
	}
	// Two independent streams over the same workload: one the sampling
	// loop consumes, one the whole-footprint cache warm consumes (the
	// same warm-up a full-detail point replays over its materialised
	// trace).
	var st, warm *trace.InstStream
	if spec.Trace.Len() > 0 {
		st = spec.Trace.OpenStream()
		warm = spec.Trace.OpenStream()
	} else if r, ok := spec.Trace.Recipe(); ok {
		var err error
		if st, err = r.OpenStream(); err != nil {
			return stats.Results{}, err
		}
		if warm, err = r.OpenStream(); err != nil {
			return stats.Results{}, err
		}
	} else {
		return stats.Results{}, fmt.Errorf("empty trace")
	}
	return core.RunSampled(spec.Config, st, warm, spec.Sample, core.RunOptions{
		MaxInsts:    spec.Insts,
		DisableSkip: spec.DisableSkip,
	})
}

// warmGroup is a snapshot group of a sweep: every spec with the same
// (trace, warm shape) forks one warmed donor hierarchy.
type warmGroup struct {
	tr  *trace.Trace
	key mem.WarmKey
}

func (g warmGroup) warm() (*mem.Hierarchy, error) { return core.WarmDonor(g.key, g.tr) }

// groupSpecs assigns every spec its warm group and returns a
// group-clustered order: members of one group are adjacent (groups in
// first-appearance order, members in spec order), so the donor a worker
// forks is mostly the one most recently touched. ladderTasks splits the
// order into the sweep's tasks. Results are still reported by spec
// index, so the reordering is invisible in the output.
func groupSpecs(specs []RunSpec) (bySpec []warmGroup, order []int) {
	groups := make(map[warmGroup]int)
	bySpec = make([]warmGroup, len(specs))
	var members [][]int
	for i, s := range specs {
		g := warmGroup{s.Trace, mem.WarmKeyFor(s.Config)}
		gi, ok := groups[g]
		if !ok {
			gi = len(members)
			groups[g] = gi
			members = append(members, nil)
		}
		bySpec[i] = g
		members[gi] = append(members[gi], i)
	}
	order = make([]int, 0, len(specs))
	for _, m := range members {
		order = append(order, m...)
	}
	return bySpec, order
}

// ladderTasks splits a group-clustered order into the tasks of a pool
// of workers. A ladder is the specs that differ only in
// Config.SLIQEntries: a full-detail spec with a SLIQ joins the ladder of
// its own copy with the SLIQ cleared, and every other spec is a task of
// its own. A ladder's members run smallest SLIQ first. Longer tasks come
// first, so no ladder starts last while the other workers idle; ties
// keep the group order. Ladders form only while there are more tasks
// than workers: with a worker for every task, a ladder would run its
// members one after another while the workers they could have used sit
// idle, so then every spec is a task of its own, in group order.
func ladderTasks(specs []RunSpec, order []int, workers int) [][]int {
	ladders := make(map[RunSpec]int)
	var tasks [][]int
	for _, i := range order {
		key := specs[i]
		if key.Config.SLIQEntries <= 0 || key.Sample.Enabled() {
			tasks = append(tasks, []int{i})
			continue
		}
		key.Config.SLIQEntries = 0
		t, ok := ladders[key]
		if !ok {
			t = len(tasks)
			ladders[key] = t
			tasks = append(tasks, nil)
		}
		tasks[t] = append(tasks[t], i)
	}
	if len(tasks) <= workers {
		tasks = make([][]int, len(order))
		for k, i := range order {
			tasks[k] = []int{i}
		}
		return tasks
	}
	for _, t := range tasks {
		slices.SortStableFunc(t, func(a, b int) int {
			return cmp.Compare(specs[a].Config.SLIQEntries, specs[b].Config.SLIQEntries)
		})
	}
	slices.SortStableFunc(tasks, func(a, b []int) int { return cmp.Compare(len(b), len(a)) })
	return tasks
}

// Sweep executes every spec over a bounded worker pool and returns the
// results in spec order: results[i] belongs to specs[i] regardless of
// which worker finished it when, so sweep output is deterministic for
// any worker count. The first failing spec cancels the remaining work
// and its error is returned; ctx cancellation stops the sweep early
// with ctx's error.
//
// Specs are grouped by (trace, warm-relevant cache shape) under the
// snapshot-fork kernel: each group warms one donor hierarchy via the
// trace's warm-up footprint and every member forks the donor's cache
// state, so a figure-9-style sweep replays each workload's warm-up once
// per cache geometry instead of once per point.
//
// Specs that differ only in their SLIQ size form a ladder (see
// ladderTasks), which one worker runs smallest SLIQ first. Once a
// member's SLIQ never refused an insert (core.CPU.SLIQRefused), every
// larger member takes its result without simulating: the SLIQ's
// capacity is read only by that fullness test, so the larger runs would
// be identical. Reused results share their Occ, BTB and LSQ pointers
// and Policy map with the run they copy; no caller writes through them
// (only stats.Results.AddInterval does, inside sampled runs, which
// never join a ladder). A ladder trades parallelism for work: its
// members run one after another, so ladders form only while the sweep
// has more tasks than workers, and a pool with a worker for every task
// runs every spec on its own. Execution order is ladders first, longest
// first, and otherwise group-clustered for donor locality; every spec,
// simulated or reused, still gets its Progress and OnResult call, and
// results stay in spec order.
func Sweep(ctx context.Context, specs []RunSpec, opt Options) ([]stats.Results, error) {
	if len(specs) == 0 {
		return nil, ctx.Err()
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(specs) {
		workers = len(specs)
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]stats.Results, len(specs))
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		done     int
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}

	bySpec, order := groupSpecs(specs)
	// The first member a worker reaches warms its group's donor, once;
	// every member forks it.
	var donors keyed.Memo[warmGroup, *mem.Hierarchy]
	deliver := func(i int, res stats.Results) {
		results[i] = res
		if opt.Progress != nil || opt.OnResult != nil {
			mu.Lock()
			done++
			if opt.Progress != nil {
				opt.Progress(done, len(specs), ProgressLine(specs[i], res))
			}
			if opt.OnResult != nil {
				opt.OnResult(specs[i], res)
			}
			mu.Unlock()
		}
	}

	tasks := make(chan []int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker owns a record arena: DynInst blocks grown for
			// one point are reused by every later point it runs.
			arena := core.NewArena()
			for task := range tasks {
				var clean *stats.Results // a run no SLIQ refusal shaped
				for _, i := range task {
					if ctx.Err() != nil {
						break // drain remaining tasks after cancellation
					}
					// A larger SLIQ that fails validation must fail as
					// its own run would.
					if clean != nil && specs[i].Config.Validate() == nil {
						deliver(i, *clean)
						continue
					}
					g := bySpec[i]
					res, refused, err := runSpec(specs[i], func() (*mem.Hierarchy, error) {
						h, _, err := donors.Get(g, g.warm)
						return h, err
					}, arena)
					if err != nil {
						fail(err)
						break
					}
					if !refused {
						clean = &res
					}
					deliver(i, res)
				}
			}
		}()
	}

feed:
	for _, t := range ladderTasks(specs, order, workers) {
		select {
		case tasks <- t:
		case <-ctx.Done():
			break feed
		}
	}
	close(tasks)
	wg.Wait()

	mu.Lock()
	err := firstErr
	mu.Unlock()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}
