package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/config"
)

// The ablation studies go beyond the paper's figures and probe the
// model's design choices (`experiments -list` names each) — including
// the checkpoint-taking strategies the paper defers to future work ("we
// expect to analyze a whole set of different strategies as to when
// checkpoints should be taken").

// AblationResult holds one named sweep: label -> suite-average IPC.
type AblationResult struct {
	Title  string
	Labels []string
	IPC    map[string]float64
}

// String renders the sweep.
func (r AblationResult) String() string {
	header := []string{"variant", "IPC"}
	rows := make([][]string, 0, len(r.Labels))
	for _, l := range r.Labels {
		rows = append(rows, []string{l, f3(r.IPC[l])})
	}
	return renderTable("Ablation: "+r.Title, header, rows)
}

type variant = struct {
	label string
	cfg   config.Config
}

// sweep runs a set of labelled configurations over the synthetic suite
// in one engine submission.
func (o Options) sweep(ctx context.Context, title string, variants []variant) (AblationResult, error) {
	suite, err := o.suite()
	if err != nil {
		return AblationResult{}, err
	}
	return o.sweepSuite(ctx, title, variants, suite)
}

// sweepSuite is sweep over an already-built suite (the program
// ablations pass the program suite).
func (o Options) sweepSuite(ctx context.Context, title string, variants []variant, suite []suiteTrace) (AblationResult, error) {
	points := make([]point, len(variants))
	for i, v := range variants {
		points[i] = point{cfg: v.cfg}
	}
	groups, err := o.runPoints(ctx, points, suite)
	if err != nil {
		return AblationResult{}, err
	}
	res := AblationResult{Title: title, IPC: map[string]float64{}}
	for i, v := range variants {
		res.Labels = append(res.Labels, v.label)
		res.IPC[v.label] = meanIPC(groups[i])
	}
	return res, nil
}

// commitPolicyVariants is the commit-policy comparison's variant set:
// the conventional baseline at realisable (128) and unrealisable (4096)
// sizes, the paper's checkpointed commit, the adaptive-confidence
// variant, and the unbounded-window oracle limit. The synthetic and
// program tables share it, so they read side by side.
func commitPolicyVariants() []variant {
	return []variant{
		{"rob-128", config.BaselineSized(128)},
		{"rob-4096", config.BaselineSized(4096)},
		{"checkpoint-128/2048", config.CheckpointDefault(128, 2048)},
		{"adaptive-128/2048", config.AdaptiveDefault(128, 2048)},
		{"oracle-unbounded", config.OracleDefault()},
	}
}

// AblationCommitPolicies compares every commit policy on the figure-9
// workload set (see commitPolicyVariants). The ordering the sweep should
// reproduce is rob-128 < {checkpoint, adaptive} <= rob-4096 <= oracle.
// An optional mode list restricts the sweep (cmd/experiments -commit).
func AblationCommitPolicies(ctx context.Context, opt Options, modes ...config.CommitMode) (AblationResult, error) {
	opt = opt.withDefaults()
	all := commitPolicyVariants()
	vs := all
	if len(modes) > 0 {
		want := map[config.CommitMode]bool{}
		for _, m := range modes {
			want[m] = true
		}
		vs = nil
		for _, v := range all {
			if want[v.cfg.Commit] {
				vs = append(vs, v)
			}
		}
		if len(vs) == 0 {
			return AblationResult{}, fmt.Errorf("experiments: no commit-policy variant matches %v", modes)
		}
	}
	return opt.sweep(ctx, "commit policies (figure-9 workload set)", vs)
}

// AblationCheckpointStrategy compares checkpoint-taking policies at a
// fixed 8-entry table: the paper's branch-biased heuristic against
// purely periodic strategies of several grains, against taking at every
// opportunity. Coarser windows pack more instructions per checkpoint
// but pay more re-executed work per rollback.
func AblationCheckpointStrategy(ctx context.Context, opt Options) (AblationResult, error) {
	opt = opt.withDefaults()
	mk := func(branchInt, maxInt, maxStores int) config.Config {
		cfg := config.CheckpointDefault(128, 2048)
		cfg.CheckpointBranchInterval = branchInt
		cfg.CheckpointMaxInterval = maxInt
		cfg.CheckpointMaxStores = maxStores
		return cfg
	}
	periodic := func(n int) config.Config {
		cfg := config.CheckpointDefault(128, 2048)
		// A branch interval beyond the hard cap disables the branch
		// rule, leaving pure every-n-instructions checkpointing.
		cfg.CheckpointBranchInterval = n
		cfg.CheckpointMaxInterval = n
		cfg.CheckpointMaxStores = 64
		return cfg
	}
	return opt.sweep(ctx, "checkpoint-taking strategy (8 checkpoints)", []variant{
		{"paper (branch>=64, cap 512, 64 stores)", mk(64, 512, 64)},
		{"branch>=16, cap 512", mk(16, 512, 64)},
		{"branch>=256, cap 512", mk(256, 512, 64)},
		{"periodic 64", periodic(64)},
		{"periodic 256", periodic(256)},
		{"periodic 512", periodic(512)},
	})
}

// AblationWakeWidth sweeps the SLIQ re-insertion bandwidth: the paper
// fixes 4/cycle; this shows how little of it the mechanism needs.
func AblationWakeWidth(ctx context.Context, opt Options) (AblationResult, error) {
	opt = opt.withDefaults()
	var vs []variant
	for _, w := range []int{1, 2, 4, 8} {
		cfg := config.CheckpointDefault(64, 1024)
		cfg.SLIQWakeWidth = w
		vs = append(vs, variant{fmt.Sprintf("wake width %d/cycle", w), cfg})
	}
	return opt.sweep(ctx, "SLIQ wake bandwidth (IQ 64, SLIQ 1024)", vs)
}

// AblationMemoryPorts sweeps the per-cycle data-cache port count, the
// substrate limit the issue stage enforces.
func AblationMemoryPorts(ctx context.Context, opt Options) (AblationResult, error) {
	opt = opt.withDefaults()
	var vs []variant
	for _, p := range []int{1, 2, 4} {
		cfg := config.CheckpointDefault(128, 2048)
		cfg.MemoryPorts = p
		vs = append(vs, variant{fmt.Sprintf("%d ports", p), cfg})
	}
	return opt.sweep(ctx, "data-cache ports (COoO 128/2048)", vs)
}

// AblationBranchPrediction isolates the cost of speculation on the
// checkpointed machine: gshare (with both recovery paths live) against
// a perfect front end.
func AblationBranchPrediction(ctx context.Context, opt Options) (AblationResult, error) {
	opt = opt.withDefaults()
	gshare := config.CheckpointDefault(128, 2048)
	perfect := config.CheckpointDefault(128, 2048)
	perfect.PerfectBranchPrediction = true
	small := config.CheckpointDefault(32, 2048)
	smallPerfect := small
	smallPerfect.PerfectBranchPrediction = true
	return opt.sweep(ctx, "branch prediction (checkpointed commit)", []variant{
		{"gshare, pseudo-ROB 128", gshare},
		{"perfect, pseudo-ROB 128", perfect},
		{"gshare, pseudo-ROB 32", small},
		{"perfect, pseudo-ROB 32", smallPerfect},
	})
}

// AblationPrefetch tests the introduction's claim that prefetching
// "does not solve the problem completely": a next-line prefetcher on
// the 128-entry baseline against the kilo-instruction alternatives.
func AblationPrefetch(ctx context.Context, opt Options) (AblationResult, error) {
	opt = opt.withDefaults()
	base := func(deg int) config.Config {
		cfg := config.BaselineSized(128)
		cfg.PrefetchDegree = deg
		return cfg
	}
	cooo := config.CheckpointDefault(128, 2048)
	return opt.sweep(ctx, "prefetching vs large windows (1000-cycle memory)", []variant{
		{"baseline-128", base(0)},
		{"baseline-128 + prefetch 2", base(2)},
		{"baseline-128 + prefetch 8", base(8)},
		{"baseline-4096 (no prefetch)", config.BaselineSized(4096)},
		{"COoO-128/2048 (no prefetch)", cooo},
	})
}

// Ablations runs every sweep and renders them. An optional commit-mode
// list restricts the commit-policies sweep (the other sweeps are
// unaffected).
func Ablations(ctx context.Context, opt Options, commitModes ...config.CommitMode) (string, error) {
	var b strings.Builder
	for _, run := range []func(context.Context, Options) (AblationResult, error){
		func(ctx context.Context, opt Options) (AblationResult, error) {
			return AblationCommitPolicies(ctx, opt, commitModes...)
		},
		AblationCheckpointStrategy,
		AblationWakeWidth,
		AblationMemoryPorts,
		AblationBranchPrediction,
		AblationPrefetch,
	} {
		r, err := run(ctx, opt)
		if err != nil {
			return "", err
		}
		b.WriteString(r.String())
		b.WriteString("\n")
	}
	return b.String(), nil
}
