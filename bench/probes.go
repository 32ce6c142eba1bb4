package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/isa/programs"
	"repro/internal/isa/rv32"
	"repro/internal/mem"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/trace"
)

// probeInsts is the committed-instruction budget of the single-layer
// probes: long enough to leave start-up transients behind, short enough
// that every probe of a traced run takes a few seconds in all.
const probeInsts = 100_000

// timer runs f inside a span named probe.<layer>.<call> and returns how
// long f took.
type timer func(layer, call string, f func() error) (time.Duration, error)

// probeLayers times calls into each layer's public functions directly,
// one span per call, and returns the per-layer numbers they give. The
// inputs come from the seed alone, so every workload's traced run
// measures the same calls.
func probeLayers(t *tracer, seed uint64) (map[string]float64, error) {
	m := map[string]float64{}
	root := t.begin("probes", "probes", 0)
	defer t.finish(root)
	timed := timer(func(layer, call string, f func() error) (time.Duration, error) {
		sp := t.begin("probe."+layer+"."+call, layer, root)
		start := time.Now()
		err := f()
		d := time.Since(start)
		t.finish(sp)
		return d, err
	})

	// trace: materialise the six suite recipes.
	var traces []*trace.Trace
	var insts int64
	d, err := timed("trace", "Materialise", func() error {
		for _, b := range experiments.SuiteBenchmarks(seed) {
			tr, err := b.Recipe(trace.LenFor(probeInsts)).Materialise()
			if err != nil {
				return err
			}
			traces = append(traces, tr)
			insts += tr.Len()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m["trace.materialise_ns_per_inst"] = float64(d.Nanoseconds()) / float64(insts)
	fpmix := traces[len(traces)-1]

	// mem: warm one donor per suite trace, then fork and ship the fpmix one.
	cfg := config.CheckpointDefault(128, 2048)
	key := mem.WarmKeyFor(cfg)
	var donor *mem.Hierarchy
	d, err = timed("mem", "WarmDonor", func() error {
		for _, tr := range traces {
			h, err := core.WarmDonor(key, tr)
			if err != nil {
				return err
			}
			donor = h
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m["mem.warm_ms_per_group"] = ms(d) / float64(len(traces))
	var forks []float64
	for range 200 {
		d, err := timed("mem", "Fork", func() error { _, err := donor.Fork(cfg); return err })
		if err != nil {
			return nil, err
		}
		forks = append(forks, float64(d.Nanoseconds())/1e3)
	}
	m["mem.fork_us"] = median(forks)
	var trips []float64
	for range 20 {
		d, err := timed("mem", "SnapshotRoundTrip", func() error {
			var buf bytes.Buffer
			if err := donor.WriteSnapshot(&buf); err != nil {
				return err
			}
			_, err := mem.ReadSnapshot(&buf)
			return err
		})
		if err != nil {
			return nil, err
		}
		trips = append(trips, ms(d))
	}
	m["mem.snapshot_roundtrip_ms"] = median(trips)

	// core: one forked point per commit policy over the fpmix trace.
	for _, p := range []struct {
		name string
		cfg  config.Config
	}{
		{"rob", config.BaselineSized(128)},
		{"checkpoint", config.CheckpointDefault(128, 2048)},
		{"adaptive", config.AdaptiveDefault(128, 2048)},
		{"oracle", config.OracleDefault()},
	} {
		pd, err := core.WarmDonor(mem.WarmKeyFor(p.cfg), fpmix)
		if err != nil {
			return nil, err
		}
		var per []float64
		for range 3 {
			var committed uint64
			d, err := timed("core", "Run."+p.name, func() error {
				cpu, err := core.NewForked(p.cfg, fpmix, pd, nil)
				if err != nil {
					return err
				}
				committed = cpu.Run(core.RunOptions{MaxInsts: probeInsts}).Committed
				return nil
			})
			if err != nil {
				return nil, err
			}
			per = append(per, float64(d.Nanoseconds())/float64(committed))
		}
		m["core.run_ns_per_inst."+p.name] = median(per)
	}
	cpu, err := core.NewForked(cfg, fpmix, donor, nil)
	if err != nil {
		return nil, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := cpu.Run(core.RunOptions{MaxInsts: probeInsts})
	runtime.ReadMemStats(&after)
	m["core.allocs_per_inst"] = float64(after.Mallocs-before.Mallocs) / float64(res.Committed)

	// rv32: execute each program, then drain its recipe's stream.
	var steps, streamed uint64
	var execD, streamD time.Duration
	for _, name := range programs.Names() {
		spec, _ := programs.Lookup(name)
		p, err := spec.Build(spec.InputFor(sampledInsts), seed)
		if err != nil {
			return nil, err
		}
		d, err := timed("rv32", "Execute", func() error {
			mc, err := rv32.Execute(p, 16*sampledInsts)
			if err == nil {
				steps += mc.Steps()
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		execD += d
		r, err := experiments.ProgramRecipe(name, sampledInsts, seed)
		if err != nil {
			return nil, err
		}
		d, err = timed("rv32", "Stream", func() error {
			st, err := r.OpenStream()
			if err != nil {
				return err
			}
			for {
				in, err := st.Peek(8192)
				if err != nil || len(in) == 0 {
					return err
				}
				st.Skip(len(in))
				streamed += uint64(len(in))
			}
		})
		if err != nil {
			return nil, err
		}
		streamD += d
	}
	m["rv32.exec_ns_per_inst"] = float64(execD.Nanoseconds()) / float64(steps)
	m["rv32.stream_ns_per_inst"] = float64(streamD.Nanoseconds()) / float64(streamed)

	if err := probeService(m, timed, seed); err != nil {
		return nil, err
	}
	return m, nil
}

// probeService times an all-hit batch at each hop — the scheduler
// in-process, one worker over HTTP, the coordinator in front of it — and
// the scheduler's cost per miss on top of the simulation itself.
func probeService(m map[string]float64, timed timer, seed uint64) error {
	ctx := context.Background()
	jobs := fleetPoints(1, 5_000, seed)[:warmBatch]
	sched := service.NewScheduler(service.SchedulerOptions{Workers: workers})
	submitWait := func(s *service.Scheduler, jobs []service.Job) error {
		b, err := s.Submit(jobs)
		if err != nil {
			return err
		}
		st, err := b.Wait(ctx)
		if err == nil && len(st.Errors) > 0 {
			err = fmt.Errorf("%d point(s) failed: %v", len(st.Errors), st.Errors)
		}
		return err
	}
	if err := submitWait(sched, jobs); err != nil {
		return err
	}
	median200 := func(layer, call string, f func() error) (float64, error) {
		var xs []float64
		for range 200 {
			d, err := timed(layer, call, f)
			if err != nil {
				return 0, err
			}
			xs = append(xs, ms(d))
		}
		return median(xs), nil
	}
	v, err := median200("service", "Scheduler.Submit", func() error { return submitWait(sched, jobs) })
	if err != nil {
		return err
	}
	m["service.hit_batch_us.scheduler"] = v * 1e3

	lb := &loopbackFleet{}
	defer lb.stop()
	listen := func(h http.Handler) (string, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		lb.serve(ln, h)
		return "http://" + ln.Addr().String(), nil
	}
	worker, err := listen(service.NewHandler(sched))
	if err != nil {
		return err
	}
	if lb.c, err = fleet.New(fleet.Options{Workers: []string{worker}, PingInterval: time.Second}); err != nil {
		return err
	}
	coord, err := listen(fleet.NewHandler(lb.c))
	if err != nil {
		return err
	}
	var hops [2]float64
	for i, u := range []string{worker, coord} {
		client := &service.Client{BaseURL: u}
		if err := client.AwaitReady(ctx); err != nil {
			return err
		}
		if hops[i], err = median200("service", "Client.Run", func() error { _, err := client.Run(ctx, jobs, nil); return err }); err != nil {
			return err
		}
	}
	m["service.hit_batch_ms.http"] = hops[0]
	m["fleet.hop_ms"] = hops[1] - hops[0]

	var over []float64
	for i := range 5 {
		job := service.Job{
			Config: config.CheckpointDefault(128, 2048),
			Trace:  trace.Recipe{Kernel: trace.KernelFPMix, N: trace.LenFor(fleetInsts + uint64(i)), Seed: seed},
			Insts:  fleetInsts + uint64(i),
		}
		tr, err := job.Trace.Materialise()
		if err != nil {
			return err
		}
		simD, err := timed("sim", "Run", func() error {
			_, err := sim.Run(sim.RunSpec{Config: job.Config, Trace: tr, Insts: job.Insts})
			return err
		})
		if err != nil {
			return err
		}
		fresh := service.NewScheduler(service.SchedulerOptions{Workers: 1})
		schedD, err := timed("service", "Scheduler.SubmitMiss", func() error { return submitWait(fresh, []service.Job{job}) })
		if err != nil {
			return err
		}
		over = append(over, ms(schedD-simD))
	}
	m["service.miss_overhead_ms"] = median(over)
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
