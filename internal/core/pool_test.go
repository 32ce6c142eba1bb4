package core

import (
	"os"
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/config"
	"repro/internal/lsq"
	"repro/internal/rename"
	"repro/internal/stats"
	"repro/internal/trace"
)

// TestMain switches on the free-list poison checks for the whole core
// suite: every run below then verifies the DynInst recycling discipline
// (no double release, no release while queue- or heap-resident, no
// acquisition of a live record) in addition to its own assertions.
func TestMain(m *testing.M) {
	debugPool = true
	os.Exit(m.Run())
}

// TestAllocsPerCommittedInstruction pins the simulator's steady-state
// allocation rate on every commit policy: at most one heap allocation
// per committed instruction, amortising CPU construction over the run.
// The hot path is designed to allocate nothing per instruction (pooled
// DynInsts, intrusive issue-queue entries, recycled LSQ entries, SLIQ
// residence without a record); the budget of 1 leaves room for
// structure growth and checkpoint snapshots. This is the PR-3 regression
// guard: a reintroduced per-dispatch allocation trips it immediately.
func TestAllocsPerCommittedInstruction(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	const insts = 20000
	tr := trace.FPMix(trace.LenFor(insts), 42)
	for _, tc := range []struct {
		name string
		cfg  config.Config
	}{
		{"rob", config.BaselineSized(128)},
		{"checkpoint", config.CheckpointDefault(128, 2048)},
		{"adaptive", config.AdaptiveDefault(128, 2048)},
		{"oracle", config.OracleDefault()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var committed uint64
			allocs := testing.AllocsPerRun(3, func() {
				cpu, err := New(tc.cfg, tr)
				if err != nil {
					t.Fatal(err)
				}
				committed = cpu.Run(RunOptions{MaxInsts: insts}).Committed
			})
			if committed == 0 {
				t.Fatal("nothing committed; allocation budget is vacuous")
			}
			perInst := allocs / float64(committed)
			t.Logf("%s: %.0f allocs / %d committed = %.4f per instruction",
				tc.name, allocs, committed, perInst)
			if perInst > 1.0 {
				t.Errorf("%s: %.4f allocations per committed instruction, budget is 1",
					tc.name, perInst)
			}
		})
	}
}

// TestPooledDeterminismUnderRecovery re-runs a rollback- and
// exception-heavy workload and requires bit-equal statistics: record
// recycling must not perturb any architectural or timing state. The
// workload is chosen so both recovery paths (pseudo-ROB and checkpoint
// rollback) and the two-pass exception protocol all fire.
func TestPooledDeterminismUnderRecovery(t *testing.T) {
	tr := rollbackHeavyTrace(90000)
	for name, cfg := range map[string]config.Config{
		"checkpoint":      config.CheckpointDefault(32, 1024),
		"checkpoint-vreg": vregConfig(config.CheckpointDefault(32, 1024), 256, 66),
	} {
		t.Run(name, func(t *testing.T) {
			run := func() stats.Results {
				cpu, err := New(cfg, tr)
				if err != nil {
					t.Fatal(err)
				}
				cpu.InjectExceptionAt(4000)
				cpu.InjectExceptionAt(21000)
				res := cpu.Run(RunOptions{MaxInsts: 50000})
				if cpu.Exceptions() != 2 {
					t.Fatalf("delivered %d exceptions, want 2", cpu.Exceptions())
				}
				return res
			}
			a, b := run(), run()
			if a.Rollbacks == 0 || a.PseudoROBRecoveries == 0 {
				t.Fatalf("workload must exercise both recovery paths: %+v", a)
			}
			if !a.Equal(b) {
				t.Fatalf("pooled runs diverged:\n%+v\nvs\n%+v", a, b)
			}
		})
	}
}

// TestPooledCPUsShareTraceConcurrently is the recycled-DynInst sibling
// of TestRunNeverMutatesTrace: several CPUs — each with its own pool —
// run over one shared trace at once. Under -race this proves the pools
// are CPU-local and concurrent warm-ups only read the trace; the result
// comparison proves concurrency does not leak into simulated state.
func TestPooledCPUsShareTraceConcurrently(t *testing.T) {
	const insts = 20000
	tr := trace.FPMix(trace.LenFor(insts), 42)
	for _, tc := range []struct {
		name string
		cfg  config.Config
	}{
		{"rob", config.BaselineSized(128)},
		{"checkpoint", config.CheckpointDefault(64, 512)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const workers = 4
			results := make([]stats.Results, workers)
			var wg sync.WaitGroup
			for i := 0; i < workers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					cpu, err := New(tc.cfg, tr)
					if err != nil {
						t.Error(err)
						return
					}
					results[i] = cpu.Run(RunOptions{MaxInsts: insts})
				}(i)
			}
			wg.Wait()
			serial := mustRun(t, tc.cfg, tr, insts)
			for i, r := range results {
				if !r.Equal(serial) {
					t.Fatalf("worker %d diverged from the serial run:\n%+v\nvs\n%+v", i, r, serial)
				}
			}
		})
	}
}

// TestPoolRecyclesRecords sanity-checks that the pool actually recycles:
// a long run must allocate far fewer records than it dispatches, with
// and without virtual registers.
func TestPoolRecyclesRecords(t *testing.T) {
	const insts = 30000
	tr := trace.FPMix(trace.LenFor(insts), 7)
	for name, cfg := range map[string]config.Config{
		"checkpoint":      config.CheckpointDefault(64, 1024),
		"checkpoint-vreg": vregConfig(config.CheckpointDefault(64, 1024), 512, 66),
	} {
		t.Run(name, func(t *testing.T) {
			cpu, err := New(cfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			res := cpu.Run(RunOptions{MaxInsts: insts})
			// Free records are all that ever came from the block
			// allocator besides the live tail of the pipeline.
			pooled := len(cpu.pool.free)
			if uint64(pooled) >= res.Dispatched/4 {
				t.Fatalf("pool holds %d records for %d dispatches; recycling is not happening",
					pooled, res.Dispatched)
			}
			if pooled == 0 {
				t.Fatal("no records ever recycled")
			}
		})
	}
}

// TestRecycleReturnsWindowRecords stops runs with instructions in
// flight and recycles each CPU into its arena: the free list must then
// hold the records that were free plus every record of the in-flight
// window, each poisoned and otherwise zero, so nothing of the finished
// CPU stays pinned by, or leaks into, the next CPU the arena serves.
func TestRecycleReturnsWindowRecords(t *testing.T) {
	tr := trace.FPMix(trace.LenFor(20000), 42)
	for _, tc := range []struct {
		name string
		cfg  config.Config
	}{
		{"rob", config.BaselineSized(128)},
		{"checkpoint", config.CheckpointDefault(128, 2048)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			arena := NewArena()
			cpu, err := newCPU(tc.cfg, tr, nil, arena, nil)
			if err != nil {
				t.Fatal(err)
			}
			cpu.Run(RunOptions{MaxInsts: 5000})
			want := map[*DynInst]bool{}
			for _, d := range arena.pool.free {
				want[d] = true
			}
			if cpu.window.Len() == 0 {
				t.Fatal("the run stopped with an empty window; nothing to strand")
			}
			for i := 0; i < cpu.window.Len(); i++ {
				want[cpu.window.At(i)] = true
			}
			cpu.Recycle(arena)
			if got := len(arena.pool.free); got != len(want) {
				t.Fatalf("free list holds %d records, want %d (the free ones plus the window's)", got, len(want))
			}
			for _, d := range arena.pool.free {
				if !want[d] {
					t.Fatalf("free list holds a record that was neither free nor in flight: %v", d)
				}
				if !reflect.DeepEqual(*d, DynInst{Seq: poisonSeq}) {
					t.Fatalf("recycled record is not poisoned and zeroed: %+v", *d)
				}
			}
		})
	}
}

// TestReleasePoisonsSeqUntilReuse pins the pool's liveness rule: release
// poisons Seq at once, so every holder's Seq check fails and released
// reads true from then on, and leaves the rest of the record untouched
// for a reader earlier in the same cycle; the next acquire hands the
// same record back zeroed.
func TestReleasePoisonsSeqUntilReuse(t *testing.T) {
	var p instPool
	d := p.acquire()
	d.Seq, d.Pos, d.DestPhys = 7, 3, 5
	d.Done = true
	d.lsqe = &lsq.Entry[*DynInst]{}
	p.release(d)
	if d.Seq != poisonSeq || !d.released() || holdsSeq(7, d) {
		t.Fatalf("released record reads seq %d, want the poison %d", d.Seq, poisonSeq)
	}
	if !d.Done || d.Pos != 3 || d.lsqe == nil {
		t.Fatalf("release cleared more than Seq: %+v", *d)
	}
	got := p.acquire()
	if got != d {
		t.Fatal("acquire did not reuse the released record")
	}
	want := DynInst{DestPhys: rename.PhysNone, PrevPhys: rename.PhysNone, wheelSlot: eventNone}
	want.iqe.Payload = got
	if !reflect.DeepEqual(*got, want) {
		t.Fatalf("reused record is not zeroed:\n got %+v\nwant %+v", *got, want)
	}
}

// TestDynInstSizePinned keeps the in-flight record within 160 bytes on
// 64-bit hosts, two and a half cache lines: every wake, select and
// commit walks these records, so a field that grows them costs every
// instruction.
func TestDynInstSizePinned(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the pin is for 64-bit hosts")
	}
	if got := unsafe.Sizeof(DynInst{}); got > 160 {
		t.Fatalf("DynInst is %d bytes, want at most 160", got)
	}
}
