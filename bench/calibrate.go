package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// The host this benchmark runs on is shared, and its speed drifts by
// 10-30% over tens of seconds as other tenants come and go: within one run
// the speed barely moves, between runs it does. A run therefore times a
// fixed kernel before every rep and after the last one, and scales its
// time metrics by how much slower than the reference host the kernel ran
// (the median over the run). The kernel is part of the benchmark, not of
// the program under test, so no change to the program moves it.
const (
	// calibrationSteps sizes the kernel to about 80 ms per call.
	calibrationSteps = 8_000_000
	// calibrationRef is the kernel's median time on the reference host
	// (baseline.json names the host), so scaled times read as that host's.
	calibrationRef = 80 * time.Millisecond
)

var calibrationSink atomic.Uint64

// calibrate runs the kernel on `workers` goroutines, one per core the
// workloads use, and returns its wall time. The kernel is a tiny bytecode
// interpreter over a fixed random program — branchy integer work on
// cache-resident data, like the simulator's own inner loops.
func calibrate() time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for g := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var code [4096]uint8
			x := uint64(88172645463325252)
			for i := range code {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				code[i] = uint8(x)
			}
			var regs [16]uint64
			regs[1] = uint64(g + 7)
			pc := 0
			for i := range calibrationSteps {
				op := code[pc]
				a, b := op&15, op>>4
				switch op & 3 {
				case 0:
					regs[a] += regs[b] ^ uint64(i)
				case 1:
					regs[a] = regs[a]*31 + regs[b]
				case 2:
					if regs[a]&1 == 0 {
						pc = (pc + int(regs[b]&63)) & 4095
					}
				default:
					regs[a] ^= regs[b] >> 3
				}
				pc = (pc + 1) & 4095
			}
			calibrationSink.Add(regs[3])
		}()
	}
	wg.Wait()
	return time.Since(start)
}
