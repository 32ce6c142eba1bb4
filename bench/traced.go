package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"regexp"
	"runtime/pprof"
	"slices"
	"syscall"
	"time"

	"repro/internal/stats"
)

// layerUnits lists every per-layer metric a traced run reports, with its
// unit. A metric of a layer the workload does not exercise reads 0.
var layerUnits = map[string]string{
	"trace.materialise_ns_per_inst":    "ns/inst",
	"trace.window_share":               "share",
	"rv32.exec_ns_per_inst":            "ns/inst",
	"rv32.stream_ns_per_inst":          "ns/inst",
	"rv32.emit_share":                  "share",
	"mem.warm_ms_per_group":            "ms",
	"mem.fork_us":                      "us",
	"mem.snapshot_roundtrip_ms":        "ms",
	"mem.stage_ns_per_inst":            "ns/inst",
	"mem.dl1_miss_rate":                "ratio",
	"mem.l2_miss_rate":                 "ratio",
	"core.run_ns_per_inst.rob":         "ns/inst",
	"core.run_ns_per_inst.checkpoint":  "ns/inst",
	"core.run_ns_per_inst.adaptive":    "ns/inst",
	"core.run_ns_per_inst.oracle":      "ns/inst",
	"core.stage_ns_per_inst.commit":    "ns/inst",
	"core.stage_ns_per_inst.writeback": "ns/inst",
	"core.stage_ns_per_inst.issue":     "ns/inst",
	"core.stage_ns_per_inst.dispatch":  "ns/inst",
	"core.allocs_per_inst":             "allocs/inst",
	"core.skip_rate":                   "ratio",
	"core.sampled.warm_share":          "share",
	"core.sampled.ff_share":            "share",
	"core.sampled.detail_share":        "share",
	"core.sampled.ff_ns_per_inst":      "ns/inst",
	"core.sampled.detail_ns_per_inst":  "ns/inst",
	"core.ipc_mean":                    "IPC",
	"core.sampled.detail_fraction":     "ratio",
	"sim.pool_busy_ratio":              "ratio",
	"sim.warm_groups":                  "count",
	"sim.minst_per_s":                  "Minst/s",
	"service.hit_batch_us.scheduler":   "us",
	"service.hit_batch_ms.http":        "ms",
	"service.miss_overhead_ms":         "ms",
	"service.sims_per_point":           "ratio",
	"service.cache_hit_ratio":          "ratio",
	"service.warm_builds":              "count",
	"service.donors_adopted":           "count",
	"service.donor_fetch_failures":     "count",
	"fleet.hop_ms":                     "ms",
	"fleet.shard_skew":                 "ratio",
	"fleet.node_failures":              "count",
	"fleet.breaker_trips":              "count",
	"trace_overhead_pct":               "%",
}

func frame(expr string) *regexp.Regexp { return regexp.MustCompile(expr) }

var cpuRun = frame(`^repro/internal/core\.\(\*CPU\)\.Run$`)

// stageCats split host time by pipeline stage and by the layers the
// stages call into; phaseCats split sampled runs by protocol phase. Each
// list is folded on its own, so a sample counts once per list.
var (
	stageCats = []category{
		{"rv32.emit", frame(`^repro/internal/isa/rv32\.\(\*Streamer\)\.Emit$`), nil},
		{"trace.window", frame(`^repro/internal/trace\.\(\*InstStream\)\.Window$`), nil},
		{"mem.stage", frame(`^repro/internal/mem\.`), cpuRun},
		{"commit", frame(`^repro/internal/core\.\(\*\w+Policy\)\.Commit$`), nil},
		{"writeback", frame(`^repro/internal/core\.\(\*CPU\)\.writebackStage$`), nil},
		{"issue", frame(`^repro/internal/core\.\(\*CPU\)\.issueStage$`), nil},
		{"dispatch", frame(`^repro/internal/core\.\(\*CPU\)\.dispatchStage$`), nil},
	}
	phaseCats = []category{
		{"warm", frame(`^repro/internal/core\.\(\*sampleState\)\.warmWhole$`), nil},
		{"ff", frame(`^repro/internal/core\.\(\*sampleState\)\.fastForward$`), nil},
		{"detail", cpuRun, frame(`^repro/internal/core\.RunSampled$`)},
	}
)

// tracedRun runs a warm-up rep, then the same rep untraced, traced (with
// spans and the CPU profiler on) and untraced again, then the single-layer
// probes, and derives every per-layer metric. The two untraced reps
// bracket the traced one, so drift over the run does not read as tracing
// overhead. It writes the profile and the span file under outDir.
func tracedRun(w workload, inst instance, seed uint64) (childResult, error) {
	if _, err := inst.rep(nil); err != nil {
		return childResult{}, err
	}
	cpu0 := cpuTime()
	call := time.Now()
	base, err := inst.rep(nil)
	if err != nil {
		return childResult{}, err
	}
	busy := (cpuTime() - cpu0).Seconds() / (workers * time.Since(call).Seconds())

	t := newTracer()
	profPath := outPath(w.name, seed, ".pprof")
	f, err := os.Create(profPath)
	if err != nil {
		return childResult{}, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return childResult{}, err
	}
	traced, err := inst.rep(t)
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return childResult{}, err
	}
	after, err := inst.rep(nil)
	if err != nil {
		return childResult{}, err
	}
	untraced := (base.wall + after.wall) / 2
	m, err := probeLayers(t, seed)
	if err != nil {
		return childResult{}, err
	}

	out, err := exec.Command("go", "tool", "pprof", "-traces", profPath).Output()
	if err != nil {
		return childResult{}, fmt.Errorf("go tool pprof: %w", err)
	}
	stages, total, err := fold(bytes.NewReader(out), stageCats)
	if err != nil {
		return childResult{}, err
	}
	phases, _, err := fold(bytes.NewReader(out), phaseCats)
	if err != nil {
		return childResult{}, err
	}
	if total <= 0 {
		return childResult{}, fmt.Errorf("the CPU profile of the traced rep holds no samples")
	}
	share := func(d time.Duration) float64 { return d.Seconds() / total.Seconds() }
	m["rv32.emit_share"] = share(stages["rv32.emit"])
	m["trace.window_share"] = share(stages["trace.window"])
	m["core.sampled.warm_share"] = share(phases["warm"])
	m["core.sampled.ff_share"] = share(phases["ff"])
	m["core.sampled.detail_share"] = share(phases["detail"])

	g, err := guards(traced.raw)
	if err != nil {
		return childResult{}, err
	}
	m["core.ipc_mean"] = g.ipc
	m["mem.dl1_miss_rate"] = g.dl1
	m["mem.l2_miss_rate"] = g.l2
	m["core.skip_rate"] = g.skip
	m["core.sampled.detail_fraction"] = g.detailFraction
	perInst := func(d time.Duration, insts uint64) float64 {
		if insts == 0 || !inst.simulates() {
			return 0
		}
		return float64(d.Nanoseconds()) / float64(insts)
	}
	m["mem.stage_ns_per_inst"] = perInst(stages["mem.stage"], g.detailInsts)
	for _, s := range []string{"commit", "writeback", "issue", "dispatch"} {
		m["core.stage_ns_per_inst."+s] = perInst(stages[s], g.detailInsts)
	}
	m["core.sampled.ff_ns_per_inst"] = perInst(phases["ff"], g.ffInsts)
	m["core.sampled.detail_ns_per_inst"] = perInst(phases["detail"], g.sampledDetailInsts)
	m["sim.pool_busy_ratio"] = busy
	m["sim.warm_groups"] = float64(inst.warmGroups())
	m["sim.minst_per_s"] = 0
	if inst.simulates() {
		m["sim.minst_per_s"] = float64(g.coveredInsts) / untraced.Seconds() / 1e6
	}
	m["trace_overhead_pct"] = 100 * (traced.wall.Seconds()/untraced.Seconds() - 1)
	scraped(m, traced)

	if err := t.write(outPath(w.name, seed, "-spans.json")); err != nil {
		return childResult{}, err
	}
	self := selfTimes(t.spans)
	for _, name := range slices.Sorted(maps.Keys(self)) {
		fmt.Fprintf(os.Stderr, "%s: self %-32s %10.3f ms\n", w.name, name, ms(self[name]))
	}

	cr := outcome(w.name, seed, []repResult{base, traced, after})
	for name, unit := range layerUnits {
		v, ok := m[name]
		if !ok {
			return cr, fmt.Errorf("traced run left %s unmeasured", name)
		}
		cr.Metrics[name] = metric{v, unit}
	}
	return cr, nil
}

// cpuTime returns the user plus system CPU time this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resultGuards are simulated quantities that a change meant only to speed
// up the simulator must leave exactly as they were, plus the instruction
// counts host time is divided by.
type resultGuards struct {
	ipc, dl1, l2, skip, detailFraction float64
	// detailInsts counts instructions CPU.Run committed: every committed
	// instruction of a full-detail point, and the measured plus warm-up
	// window instructions of a sampled one (sampledDetailInsts alone).
	detailInsts, sampledDetailInsts uint64
	ffInsts, coveredInsts           uint64
}

func guards(raw [][]byte) (resultGuards, error) {
	var g resultGuards
	var dl1Acc, dl1Miss, l2Acc, l2Miss, skipped, cycles uint64
	var sampled int
	for _, b := range raw {
		var r stats.Results
		if err := json.Unmarshal(b, &r); err != nil {
			return g, fmt.Errorf("decode result: %w", err)
		}
		g.ipc += r.IPC() / float64(len(raw))
		dl1Acc += r.Mem.DL1.Accesses
		dl1Miss += r.Mem.DL1.Misses
		l2Acc += r.Mem.L2.Accesses
		l2Miss += r.Mem.L2.Misses
		skipped += r.SkippedCycles
		cycles += uint64(r.Cycles)
		if s := r.Sampled; s != nil {
			sampled++
			g.detailFraction += s.DetailFraction()
			g.sampledDetailInsts += s.SampledInsts + s.WarmupInsts
			g.ffInsts += s.FastForwardInsts
			g.coveredInsts += s.TotalInsts
		} else {
			g.detailInsts += r.Committed
			g.coveredInsts += r.Committed
		}
	}
	g.detailInsts += g.sampledDetailInsts
	g.dl1 = ratio(dl1Miss, dl1Acc)
	g.l2 = ratio(l2Miss, l2Acc)
	g.skip = ratio(skipped, cycles)
	if sampled > 0 {
		g.detailFraction /= float64(sampled)
	}
	return g, nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// scraped fills the service and fleet counters the rep moved on the
// fleet's /metrics endpoints (zeros for workloads without a fleet).
func scraped(m map[string]float64, r repResult) {
	s := r.scrape
	if s == nil {
		s = &fleetScrape{coord: map[string]float64{}}
	}
	m["service.sims_per_point"] = s.sum("ooosim_simulations_total") / float64(r.attempted)
	m["service.cache_hit_ratio"] = 0
	if pts := s.sum("ooosim_points_total"); pts > 0 {
		m["service.cache_hit_ratio"] = s.sum("ooosim_points_cached_total") / pts
	}
	m["service.warm_builds"] = s.sum("ooosim_warm_builds_total")
	m["service.donors_adopted"] = s.sum("ooosim_donors_adopted_total")
	m["service.donor_fetch_failures"] = s.sum("ooosim_donor_fetch_failures_total")
	var peak, sum float64
	for _, w := range s.workers {
		peak = max(peak, w["ooosim_points_total"])
		sum += w["ooosim_points_total"]
	}
	m["fleet.shard_skew"] = 0
	if sum > 0 {
		m["fleet.shard_skew"] = peak / (sum / float64(len(s.workers)))
	}
	m["fleet.node_failures"] = s.coord["ooosim_fleet_node_failures_total"]
	m["fleet.breaker_trips"] = s.coord["ooosim_fleet_breaker_trips_total"]
}
