package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/isa/programs"
	"repro/internal/mem"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// workers bounds every pool the benchmark drives: sweep workers, fleet
// clients and fleet worker slots. The benchmark host has two cores.
const workers = 2

// Workload sizes. A repetition ("rep") is one fixed unit of work; a run
// repeats reps for its measured seconds and reports medians.
const (
	// fig9Insts is the paper's per-point budget (experiments.DefaultInsts).
	fig9Insts = 300_000
	// sampledInsts is the per-point stream budget of sampled-programs:
	// five 200k sampling periods per point under trace.DefaultSample.
	sampledInsts = 1_000_000
	// The fleet serves fleetVariants passes of its 363-point space
	// (fleetPoints) at about fleetInsts instructions per point, in batches
	// of coldBatch (cold) and warmBatch (warm) points.
	fleetVariants = 2
	fleetInsts    = 10_000
	coldBatch     = 4
	warmBatch     = 8
	// warmBatches is the fleet-warm rep: that many all-hit batches.
	warmBatches = 3000
)

type workload struct {
	name  string
	setup func(seed uint64) (instance, error)
}

// instance is a workload set up for one seed.
type instance interface {
	// rep runs one repetition; t, when non-nil, records spans.
	rep(t *tracer) (repResult, error)
	// simulates reports whether reps simulate (false: cache hits only).
	simulates() bool
	// warmGroups counts the point list's distinct (trace, warm shape)
	// groups: the donor warm-ups a rep needs.
	warmGroups() int
	close()
}

// repResult is what one rep measured.
type repResult struct {
	wall      time.Duration
	attempted int
	failed    int
	// batches holds the latency of every batch the caller waited on: the
	// whole grid for a sweep, one client call for the fleet.
	batches []time.Duration
	// raw holds each point's stats.Results JSON in point-list order, the
	// bytes the service caches.
	raw [][]byte
	// scrape holds the fleet's /metrics counters moved by this rep.
	scrape *fleetScrape
}

// digest hashes the rep's result bytes in point-list order; "" when any
// point is missing.
func (r repResult) digest() string {
	h := sha256.New()
	for _, b := range r.raw {
		if b == nil {
			return ""
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// workloads lists the workloads in the order a full run takes them; why
// each exists is in README.md and BENCHMARK.json.
var workloads = []workload{
	{"fig9-synth", setupFig9},
	{"sampled-programs", setupSampled},
	{"fleet-cold", setupFleetCold},
	{"fleet-warm", setupFleetWarm},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sweep is a workload that submits one grid of points to sim.Sweep per
// rep, as cmd/experiments does.
type sweep struct {
	specs []sim.RunSpec
}

// setupFig9 materialises the six suite traces and lays out the figure-9
// grid (nine COoO checkpoint configurations plus ROB 128 and 4096) over
// them.
func setupFig9(seed uint64) (instance, error) {
	var cfgs []config.Config
	for _, sliq := range experiments.Figure9SLIQs {
		for _, iq := range experiments.Figure9IQs {
			cfgs = append(cfgs, config.CheckpointDefault(iq, sliq))
		}
	}
	cfgs = append(cfgs, config.BaselineSized(128), config.BaselineSized(4096))
	var traces []*trace.Trace
	var names []string
	for _, b := range experiments.SuiteBenchmarks(seed) {
		tr, err := b.Recipe(trace.LenFor(fig9Insts)).Materialise()
		if err != nil {
			return nil, fmt.Errorf("fig9-synth: %s: %w", b.Name, err)
		}
		traces = append(traces, tr)
		names = append(names, b.Name)
	}
	s := &sweep{}
	for _, cfg := range cfgs {
		for i, tr := range traces {
			s.specs = append(s.specs, sim.RunSpec{Name: names[i], Config: cfg, Trace: tr, Insts: fig9Insts})
		}
	}
	return s, nil
}

// setupSampled lays out rob-128 and checkpoint-128/2048 over the five RV32
// programs, sampled under trace.DefaultSample. The traces are recipe-only
// handles: every rep streams the programs afresh.
func setupSampled(seed uint64) (instance, error) {
	s := &sweep{}
	for _, cfg := range []config.Config{config.BaselineSized(128), config.CheckpointDefault(128, 2048)} {
		for _, name := range programs.Names() {
			r, err := experiments.ProgramRecipe(name, sampledInsts, seed)
			if err != nil {
				return nil, err
			}
			tr, err := trace.StreamOnly(r)
			if err != nil {
				return nil, fmt.Errorf("sampled-programs: %s: %w", name, err)
			}
			s.specs = append(s.specs, sim.RunSpec{
				Name: name, Config: cfg, Trace: tr, Insts: sampledInsts, Sample: trace.DefaultSample(),
			})
		}
	}
	return s, nil
}

func (s *sweep) rep(t *tracer) (repResult, error) {
	root := t.begin("sim.Sweep", "sweep", 0)
	opt := sim.Options{Workers: workers}
	start := time.Now()
	if t != nil {
		opt.OnResult = func(spec sim.RunSpec, _ stats.Results) {
			t.record("point", spec.Name+" "+spec.Config.Summary(), root, start, time.Now())
		}
	}
	res, err := sim.Sweep(context.Background(), s.specs, opt)
	wall := time.Since(start)
	t.finish(root)
	r := repResult{wall: wall, attempted: len(s.specs), batches: []time.Duration{wall}}
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep failed: %v\n", err)
		r.failed = len(s.specs)
		return r, nil
	}
	r.raw = make([][]byte, len(res))
	for i, x := range res {
		b, err := json.Marshal(x)
		if err != nil {
			return r, err
		}
		r.raw[i] = b
	}
	return r, nil
}

func (s *sweep) simulates() bool { return true }

func (s *sweep) warmGroups() int {
	type key struct {
		tr *trace.Trace
		k  mem.WarmKey
	}
	seen := map[key]bool{}
	for _, sp := range s.specs {
		if !sp.Sample.Enabled() {
			seen[key{sp.Trace, mem.WarmKeyFor(sp.Config)}] = true
		}
	}
	return len(seen)
}

func (s *sweep) close() {}

// fleetPoints enumerates the load generator's point space: checkpoint
// and adaptive commit over the figure-9 queue sizes, plus oracle and ROB
// 128/4096, crossed with the six suite kernels and the five RV32
// programs, at budgets insts, insts+1, ... (one pass of the space per
// variant). Every fifth point of the space runs sampled. The seed sets
// only the recipes' seeds, so every seed asks for the same mix of work.
func fleetPoints(variants int, insts, seed uint64) []service.Job {
	var cfgs []config.Config
	for _, sliq := range []int{512, 1024, 2048} {
		for _, iq := range []int{32, 48, 64, 96, 128} {
			cfgs = append(cfgs, config.CheckpointDefault(iq, sliq), config.AdaptiveDefault(iq, sliq))
		}
	}
	cfgs = append(cfgs, config.OracleDefault(), config.BaselineSized(128), config.BaselineSized(4096))
	suite := experiments.SuiteBenchmarks(seed)
	names := programs.Names()
	p := insts / 2
	sample := trace.SampleSpec{Warmup: p / 8, Detail: p / 4, Period: p}
	var jobs []service.Job
	for v := range variants {
		budget := insts + uint64(v)
		for _, cfg := range cfgs {
			for ri := range len(suite) + len(names) {
				var r trace.Recipe
				if ri < len(suite) {
					r = suite[ri].Recipe(trace.LenFor(budget))
				} else {
					var err error
					if r, err = experiments.ProgramRecipe(names[ri-len(suite)], budget, seed); err != nil {
						panic(err) // the names come from the registry itself
					}
				}
				j := service.Job{Name: fmt.Sprintf("p%d", len(jobs)), Config: cfg, Trace: r, Insts: budget}
				if len(jobs)%5 == 4 {
					j.Sample = sample
				}
				jobs = append(jobs, j)
			}
		}
	}
	return jobs
}

// fleetLoad is the fleet workloads' shared state: the point list and the
// fixed batch schedule every rep replays.
type fleetLoad struct {
	jobs     []service.Job
	schedule [][]int
	// warm is the primed fleet of fleet-warm (nil for fleet-cold, whose
	// reps each boot a fresh fleet), and primed its reference bytes.
	warm   *loopbackFleet
	primed [][]byte
}

// setupFleetCold cuts one seeded permutation of the points into batches
// of four: every rep simulates each point exactly once.
func setupFleetCold(seed uint64) (instance, error) {
	jobs := fleetPoints(fleetVariants, fleetInsts, seed)
	perm := rand.New(rand.NewSource(int64(seed) + 1)).Perm(len(jobs))
	return &fleetLoad{jobs: jobs, schedule: chunk(perm, coldBatch)}, nil
}

// setupFleetWarm boots the fleet, primes it with fleet-cold's points in
// one batch, and lays out warmBatches batches of eight drawn from
// back-to-back seeded permutations, so every rep serves every point.
func setupFleetWarm(seed uint64) (instance, error) {
	jobs := fleetPoints(fleetVariants, fleetInsts, seed)
	rng := rand.New(rand.NewSource(int64(seed) + 1))
	var draws []int
	for len(draws) < warmBatches*warmBatch {
		draws = append(draws, rng.Perm(len(jobs))...)
	}
	fl, err := bootFleet()
	if err != nil {
		return nil, err
	}
	f := &fleetLoad{jobs: jobs, schedule: chunk(draws[:warmBatches*warmBatch], warmBatch), warm: fl}
	all := make([]int, len(jobs))
	for i := range all {
		all[i] = i
	}
	prime := runBatches(fl.coord, jobs, [][]int{all}, nil)
	if prime.failed > 0 {
		fl.stop()
		return nil, fmt.Errorf("fleet-warm: priming failed for %d points", prime.failed)
	}
	f.primed = prime.raw
	return f, nil
}

func chunk(xs []int, size int) [][]int {
	var out [][]int
	for len(xs) > 0 {
		n := min(size, len(xs))
		out = append(out, xs[:n])
		xs = xs[n:]
	}
	return out
}

func (f *fleetLoad) rep(t *tracer) (repResult, error) {
	fl := f.warm
	if fl == nil {
		var err error
		if fl, err = bootFleet(); err != nil {
			return repResult{}, err
		}
		defer fl.stop()
	}
	before, err := fl.scrape()
	if err != nil {
		return repResult{}, err
	}
	r := runBatches(fl.coord, f.jobs, f.schedule, t)
	after, err := fl.scrape()
	if err != nil {
		return r, err
	}
	r.scrape = after.since(before)
	if f.primed != nil {
		for i, b := range r.raw {
			if b != nil && !bytes.Equal(b, f.primed[i]) {
				r.failed++
			}
		}
	}
	return r, nil
}

func (f *fleetLoad) simulates() bool { return f.warm == nil }

func (f *fleetLoad) warmGroups() int {
	seen := map[string]bool{}
	for _, j := range f.jobs {
		if !j.Sample.Enabled() {
			seen[fmt.Sprintf("%s|%+v", j.Trace, mem.WarmKeyFor(j.Config))] = true
		}
	}
	return len(seen)
}

func (f *fleetLoad) close() {
	if f.warm != nil {
		f.warm.stop()
	}
}

// runBatches drives the schedule through the coordinator at url with
// `workers` closed-loop clients: each sends its next batch only after the
// previous one completed. A point served twice must come back with the
// same bytes; a failed batch fails all its points.
func runBatches(url string, jobs []service.Job, schedule [][]int, t *tracer) repResult {
	ctx := context.Background()
	client := &service.Client{BaseURL: url}
	root := t.begin("fleet.batches", "load", 0)
	defer t.finish(root)
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
		r    = repResult{raw: make([][]byte, len(jobs))}
	)
	start := time.Now()
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				bi := int(next.Add(1)) - 1
				if bi >= len(schedule) {
					return
				}
				idx := schedule[bi]
				batch := make([]service.Job, len(idx))
				for k, i := range idx {
					batch[k] = jobs[i]
				}
				got := make([][]byte, len(idx))
				req := fmt.Sprintf("batch-%d", bi)
				sp := t.begin("service.Client.Run", req, root)
				t0 := time.Now()
				_, err := client.Run(ctx, batch, func(ev service.Event, _ *stats.Results) {
					if ev.Type == "result" && ev.Index >= 0 && ev.Index < len(got) {
						got[ev.Index] = ev.Results
						t.record("point", req, sp, t0, time.Now())
					}
				})
				d := time.Since(t0)
				t.finish(sp)
				mu.Lock()
				r.attempted += len(idx)
				if err != nil {
					fmt.Fprintf(os.Stderr, "batch %d failed: %v\n", bi, err)
					r.failed += len(idx)
				} else {
					r.batches = append(r.batches, d)
					for k, i := range idx {
						switch {
						case r.raw[i] == nil:
							r.raw[i] = got[k]
						case !bytes.Equal(r.raw[i], got[k]):
							r.failed++
						}
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	r.wall = time.Since(start)
	return r
}
