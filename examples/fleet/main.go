// Fleet walkthrough: boot a three-worker simulation fleet behind a
// coordinator, all in-process on loopback (fleet.NewLoopback), then
// drive the full fleet story through the plain service client:
//
//  1. a sharded batch — points route to workers by fingerprint, warm
//     donor snapshots ship between workers so each snapshot group is
//     warmed once fleet-wide;
//
//  2. a warm resubmission — the coordinator answers every point from
//     its own memory in the submit response: one HTTP request, no
//     worker contacted, zero simulation;
//
//  3. a mid-batch worker kill — the coordinator marks the node down
//     and re-routes its unfinished points, and the results are still
//     byte-identical (the simulator is deterministic, so it does not
//     matter which node computes a point).
//
// Run with "go run ./examples/fleet".
//
// Against real daemons the flow is identical: start N `ooosimd`
// processes with a shared -peers list, front them with `ooosimfleet`,
// and point service.Client (or cmd/experiments -server, or
// cmd/ooosimload) at the coordinator.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/config"
	"repro/internal/fleet"
	"repro/internal/service"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	// --- Boot three workers wired as a fleet, behind a coordinator.
	// Every worker gets the same canonical peer list plus its own URL,
	// which is what turns on donor shipping: each snapshot group has one
	// home worker that warms the donor, and the others adopt the
	// serialized snapshot over GET /v1/donors/{key} instead of replaying
	// the warm-up. The coordinator's HTTP surface is the worker API, so
	// the ordinary client drives it unchanged.
	const nWorkers = 3
	lb, err := fleet.NewLoopback(nWorkers, 1, fleet.Options{PingInterval: 200 * time.Millisecond}, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer lb.Close()
	client := &service.Client{BaseURL: lb.URL}
	ctx := context.Background()

	// --- A four-policy slice of the paper's sweep space: the rob
	// baseline, checkpoint COoO at two queue sizes, adaptive, oracle —
	// each over three workloads.
	const insts = 20_000
	n := trace.LenFor(insts)
	recipes := []trace.Recipe{
		{Kernel: trace.KernelStream, N: n},
		{Kernel: trace.KernelStencil, N: n},
		{Kernel: trace.KernelFPMix, N: n, Seed: 42},
	}
	cfgs := map[string]config.Config{
		"rob-128":  config.BaselineSized(128),
		"cooo-32":  config.CheckpointDefault(32, 1024),
		"cooo-128": config.CheckpointDefault(128, 1024),
		"adaptive": config.AdaptiveDefault(64, 1024),
		"oracle":   config.OracleDefault(),
	}
	var jobs []service.Job
	for name, cfg := range cfgs {
		for _, r := range recipes {
			jobs = append(jobs, service.Job{Name: name + "/" + r.Kernel, Config: cfg, Trace: r, Insts: insts})
		}
	}

	// --- 1. Cold: the batch shards across all three workers, donors
	// ship between them.
	fmt.Printf("== cold batch: %d points over %d workers\n", len(jobs), nWorkers)
	start := time.Now()
	cold := runBatch(ctx, client, jobs)
	fmt.Printf("   done in %v\n", time.Since(start))
	for i, s := range lb.Schedulers {
		adopted, built, shipped, _ := s.Donors().Stats()
		fmt.Printf("   worker %d: donors built=%d adopted=%d shipped=%d\n", i, built, adopted, shipped)
	}

	// --- 2. Warm: identical bytes from the coordinator's memory; no
	// worker is contacted.
	fmt.Printf("== warm resubmission\n")
	start = time.Now()
	warm := runBatch(ctx, client, jobs)
	fmt.Printf("   done in %v (answered from the coordinator's memory)\n", time.Since(start))
	mustMatch(cold, warm, "warm")

	// --- 3. Kill a worker mid-batch. A fresh sweep (new instruction
	// budget, so nothing is cached) starts, one worker dies, and the
	// coordinator re-routes its unfinished points to the survivors.
	fmt.Printf("== kill a worker mid-batch\n")
	for i := range jobs {
		jobs[i].Insts = insts + 1 // new fingerprints: force simulation
	}
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		time.Sleep(30 * time.Millisecond) // let the batch get rolling
		lb.Kill(2)                        // severs its event streams mid-flight
		fmt.Printf("   worker 2 killed\n")
	}()
	reference := runLocal(jobs) // single plain scheduler, for comparison
	rerouted := runBatch(ctx, client, jobs)
	<-killed
	mustMatch(reference, rerouted, "re-routed")
	fmt.Printf("   all %d points byte-identical to a single-node run\n", len(jobs))
}

// runBatch runs jobs through the coordinator and returns the raw result
// bytes per point.
func runBatch(ctx context.Context, client *service.Client, jobs []service.Job) [][]byte {
	out := make([][]byte, len(jobs))
	if _, err := client.Run(ctx, jobs, func(ev service.Event, _ *stats.Results) {
		if ev.Type == "result" {
			out[ev.Index] = ev.Results
		}
	}); err != nil {
		log.Fatal(err)
	}
	return out
}

// runLocal executes jobs on one plain in-process scheduler — the
// reference bytes a fleet of any shape must reproduce.
func runLocal(jobs []service.Job) [][]byte {
	s := service.NewScheduler(service.SchedulerOptions{})
	b, err := s.Submit(jobs)
	if err != nil {
		log.Fatal(err)
	}
	st, err := b.Wait(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	out := make([][]byte, len(jobs))
	for i, raw := range st.Results {
		out[i] = raw
	}
	return out
}

func mustMatch(want, got [][]byte, label string) {
	for i := range want {
		if !bytes.Equal(want[i], got[i]) {
			log.Fatalf("%s point %d: bytes differ", label, i)
		}
	}
}
