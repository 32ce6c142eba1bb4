package core

import (
	"fmt"

	"repro/internal/branch"
	"repro/internal/config"
	"repro/internal/fu"
	"repro/internal/isa"
	"repro/internal/lsq"
	"repro/internal/mem"
	"repro/internal/queue"
	"repro/internal/rename"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vreg"
)

// consumerRef is one wait-list registration: a waiting instruction plus
// the Seq it had when it registered. Records recycle (see DynInst), so
// the Seq is re-checked at wake time — a mismatch means the slot was
// reused by a younger instruction and the registration is stale.
type consumerRef struct {
	d   *DynInst
	seq uint64
}

// physReg is the scoreboard record of one rename register.
type physReg struct {
	// producer is the instruction that last took the register at rename
	// (nil for architectural initial state, and once a squash or an
	// in-order commit gave it up).
	producer *DynInst
	// waiters is the register's one wait list: dispatch registers every
	// unready source, and moveToSLIQ a slow-lane resident's trigger wait
	// unless the trigger is one of its sources. The write wakes and
	// empties it (finishCompletion), and so does the producer's squash.
	waiters []consumerRef
	// ready: the value is written. longTaint: it transitively depends on
	// an L2-missing load (Figure 7's live-instruction split, tracked only
	// while the CPU collects occupancy).
	ready, longTaint bool
	// vbound and vfused are the value's bind state (virtual-register mode
	// only): its bind took a physical register; its redefiner completed
	// first, so its bind and release fuse and take none.
	vbound, vfused bool
}

// CPU is one simulated processor instance bound to a workload trace.
// Construct with New; drive with Run. Run resumes where the previous
// call stopped, so a CPU can be driven in steps (a sampled run's window
// CPU runs its warm-up, then its measured window); the harness builds a
// fresh CPU per configuration point.
type CPU struct {
	cfg  config.Config
	tr   *trace.Trace
	hier *mem.Hierarchy
	fus  *fu.Pool
	rt   *rename.Table
	intQ *queue.IQ[*DynInst]
	fpQ  *queue.IQ[*DynInst]
	lq   *lsq.LSQ[*DynInst]

	// window holds every in-flight record in program order from
	// dispatch to release: the ROB, or the checkpoint family's in-flight
	// list with the pseudo-ROB as its youngest stretch. Commit pops its
	// front and every recovery its back (squashYounger). It is pre-sized
	// to ROBEntries, which only rob sets.
	window queue.Deque[*DynInst]
	// policy is the retirement engine selected by cfg.Commit (see
	// CommitPolicy).
	policy CommitPolicy

	// sliq is the slow lane of the issue-queue hierarchy: built by the
	// checkpoint-family policies, nil elsewhere. It stays on the CPU
	// because the shared wakeup paths (writeback, squash, drain) thread
	// through it.
	sliq *queue.SLIQ[*DynInst]

	// pool recycles DynInst records (see the contract on DynInst). It
	// points into the caller's Arena when one was supplied (records then
	// survive across the sweep points a worker runs), or at a private
	// pool otherwise.
	pool *instPool

	// Virtual-register extension (Figure 14); nil when disabled.
	// deferredBind queues the writebacks waiting for a physical
	// register, in completion order.
	vt           *vreg.Tracker
	deferredBind []consumerRef
	// archReleased makes the release of each logical register's
	// architectural initial value idempotent across rollback replays.
	archReleased [isa.NumLogical]bool

	frontEnd // c.pred, c.btb, c.conf (see newFrontEnd)

	// Program-backed workloads: code is the trace's static image (nil
	// for synthetic kernels). wpStart/wpBase locate the wrong-path fetch
	// stream inside the image: the static index fetch diverged to, and
	// the wpCounter value at divergence (see nextWrongPathInst).
	code    trace.StaticCode
	wpStart int
	wpBase  uint64

	probed // fetch position, activity counters (see maybeSkip)

	// Time and fetch state.
	now          int64
	divergedAt   *DynInst // unresolved mispredicted branch (wrong path active)
	wpCounter    uint64
	lastLoadAddr uint64

	// regs is the scoreboard: one record per rename register.
	regs []physReg

	completions eventWheel

	// Exception injection, indexed by trace position (lazily allocated
	// on the first InjectExceptionAt — the hot path then skips it with
	// one nil check instead of the former per-dispatch map lookups):
	// 1 = armed, raises on completion; 2 = replay, checkpoint and
	// deliver precisely.
	exceptArm []uint8
	// knownBranch marks trace positions of branches whose misprediction
	// caused a checkpoint rollback; on replay their resolved direction
	// is known to the recovery hardware. It is the one record of those
	// resolutions, for program and synthetic traces alike. Lazily
	// allocated on the first rollback (ROB mode never pays for it).
	knownBranch []bool

	// Counters a skippable cycle may move (see maybeSkip).
	sumInflight     uint64
	maxInflight     int
	ckptStallCycles uint64
	occ             *stats.Occupancy

	portsUsed int // data-cache ports consumed this cycle
	// resourceStalled marks a dispatch rejection on a resource that
	// only recycles at checkpoint commit (registers, tags, LSQ); the
	// front end then takes an emergency checkpoint to close the window
	// (deadlock avoidance, see dispatchStage).
	resourceStalled bool

	// issueRetry is the issue stage's scratch list of entries popped
	// but not issued this cycle (structural hazards); kept on the CPU
	// so the per-cycle loop never allocates it.
	issueRetry []*queue.IQEntry[*DynInst]
	// sliqAccept and forwardWake are the bound SLIQ drain and LSQ
	// forward-wake callbacks, built once so the per-cycle paths don't
	// allocate a closure.
	sliqAccept  func(seq uint64, d *DynInst) bool
	forwardWake func(seq uint64, d *DynInst)

	// Event-driven clock skip (see maybeSkip): the arm-probe state plus
	// the counters reported in stats.Results. The skip is a pure
	// simulator-speed optimisation — every simulated statistic is
	// bit-identical with it disabled (pinned by the skip equivalence
	// tests and TestFigure9Golden).
	skipPrevSig   uint64
	skipArmed     bool
	skipSnap      skipSnap
	skippedCycles uint64
	skipEvents    uint64
	longestSkip   uint64
}

// frontEnd is a CPU's branch machinery: the direction predictor, the
// BTB keyed by real fetch PCs (program traces only; nil under perfect
// prediction, which needs no target prediction) and the JRS confidence
// estimator of the adaptive taking rule (nil under every other mode). A
// sampled run builds one and threads it through its windows, so their
// training outlives each window CPU the way the cache contents do.
type frontEnd struct {
	pred branch.Predictor
	btb  *branch.BTB
	conf *branch.Confidence
}

// newFrontEnd builds untrained branch machinery for cfg; code is the
// workload's static image, nil for synthetic kernels.
func newFrontEnd(cfg config.Config, code trace.StaticCode) frontEnd {
	var fe frontEnd
	if cfg.PerfectBranchPrediction {
		fe.pred = branch.NewPerfect()
	} else {
		fe.pred = branch.NewGshare(cfg.BranchPredictorBits)
		if code != nil {
			fe.btb = branch.NewBTB(config.BTBSets, config.BTBWays)
		}
	}
	if cfg.Commit == config.CommitAdaptive {
		fe.conf = branch.NewConfidence(cfg.AdaptiveConfidenceBits, cfg.AdaptiveConfidenceMax)
	}
	return fe
}

// probed is the pipeline state a skippable cycle leaves unchanged (see
// maybeSkip). CPU embeds it, so each field reads as c.<name>, and the
// probe snapshots it in one copy and tests it in one comparison.
// policyActivity counts commit-policy state changes that move no other
// counter (today: checkpoint takes), so two outwardly identical stall
// cycles with different policy state are never conflated.
type probed struct {
	fetched, dispatched, issued, committed   uint64
	replayed, rollbacks, probRecoveries      uint64
	exceptions, policyActivity, nextSeq      uint64
	inflight, liveFPLong, liveFPShort        int
	lastCommitCycle, fetchResumeAt, fetchPos int64
	retire                                   stats.Breakdown
}

// skipSnap is the end-of-cycle snapshot behind the clock skip's
// arm-probe protocol: taken when a cycle ends with the activity
// signature unchanged, diffed at the next cycle's end — the diff is
// then exactly that one cycle's footprint. wpCounter and
// ckptStallCycles sit outside probed: a quiescent cycle may move them,
// and a jump replicates their per-cycle step.
type skipSnap struct {
	probed
	wpCounter, ckptStallCycles uint64
	wheelLen                   int
	sliq                       queue.SLIQStats
	mem                        mem.HierarchyStats
	vt                         vreg.Tracker
	deferred                   int
}

// New builds a CPU for the given configuration and workload, warming
// its memory hierarchy by replaying the trace's warm-up footprint.
func New(cfg config.Config, tr *trace.Trace) (*CPU, error) {
	return newCPU(cfg, tr, nil, nil, nil)
}

// NewForked builds a CPU whose memory hierarchy starts from donor's
// warmed cache contents instead of replaying the trace's warm-up
// footprint: the fork half of the snapshot-fork sweep kernel. The donor
// must have been produced by WarmDonor (or equivalent warm-up replay)
// over the same trace and a configuration with the same mem.WarmKey;
// forked and cold-started CPUs are then bit-identical (pinned by
// TestForkedWarmMatchesCold). The donor itself is only read — one donor
// serves any number of concurrent forks. arena, when non-nil, supplies
// the CPU's record pool (see Arena); nil uses a private pool.
func NewForked(cfg config.Config, tr *trace.Trace, donor *mem.Hierarchy, arena *Arena) (*CPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	hier, err := donor.Fork(cfg)
	if err != nil {
		return nil, err
	}
	return newCPU(cfg, tr, hier, arena, nil)
}

// Arena owns a DynInst record pool that outlives a single CPU: a sweep
// worker hands the same Arena to every point it runs, and a sampled run
// to every window CPU, so the record blocks grown for one CPU serve
// every later one instead of being re-allocated (construction churn was
// a visible slice of the sweep's profile). It also parks each finished
// CPU's chassis for the next CPU of the same shape. Recycle returns a
// finished CPU's in-flight records to the pool and zeroes every free
// record, and acquire zeroes a record again on reuse, so nothing of a
// finished CPU leaks into, or stays pinned by, the next. An Arena is
// single-owner: never share one across concurrently running CPUs.
type Arena struct {
	pool    instPool
	chassis map[chassisKey]*chassis
}

// NewArena returns an empty record arena.
func NewArena() *Arena { return &Arena{} }

// chassis is a CPU's recyclable allocation skeleton: the scoreboard
// records and the completion wheel, whose per-point construction (and
// collection) was a measurable slice of sweep time. Recycle parks a
// finished CPU's skeleton in the Arena; newCPU adopts a parked one of
// the same shape and resets it.
type chassis struct {
	regs       []physReg
	wheel      eventWheel
	issueRetry []*queue.IQEntry[*DynInst]
}

// chassisKey is the shape a chassis fits: the physical register space
// and the event ring size.
type chassisKey struct {
	phys, wheelSlots int
}

// takeChassis removes and resets a parked chassis of the given shape,
// or returns nil.
func (a *Arena) takeChassis(phys, wheelSlots int) *chassis {
	ch, ok := a.chassis[chassisKey{phys, wheelSlots}]
	if !ok {
		return nil
	}
	delete(a.chassis, chassisKey{phys, wheelSlots})
	for i := range ch.regs {
		// Keep the grown wait lists — re-registering waiters is exactly
		// what the next point will do. Stale refs beyond the truncation
		// point only reference pool-owned records.
		ch.regs[i] = physReg{waiters: ch.regs[i].waiters[:0]}
	}
	ch.wheel.recycle()
	ch.issueRetry = ch.issueRetry[:0]
	return ch
}

// Recycle parks the CPU's allocation skeleton in the arena for the next
// point of the same shape, and returns the records still in its
// in-flight window to the free list. Every free record is cleared of
// the references it carries and keeps only its poisoned Seq. The CPU
// must not be used afterwards; callers that still need results must
// collect them first. No-op for nil arenas.
func (c *CPU) Recycle(a *Arena) {
	if a == nil {
		return
	}
	for i := 0; i < c.window.Len(); i++ {
		c.pool.free = append(c.pool.free, c.window.At(i))
	}
	for _, d := range c.pool.free {
		*d = DynInst{Seq: poisonSeq}
	}
	if a.chassis == nil {
		a.chassis = map[chassisKey]*chassis{}
	}
	key := chassisKey{len(c.regs), len(c.completions.buckets)}
	a.chassis[key] = &chassis{regs: c.regs, wheel: c.completions, issueRetry: c.issueRetry}
	c.regs = nil
	c.completions = eventWheel{}
	c.issueRetry = nil
}

// WarmDonor builds a donor hierarchy for key and replays tr's warm-up
// footprint through it — exactly the warm state New gives a cold CPU of
// any configuration whose mem.WarmKeyFor matches key. Sweep engines
// call it once per (trace, warm shape) group and fork the result to
// every member point, so a sweep warms each trace once per cache
// geometry instead of once per point.
func WarmDonor(key mem.WarmKey, tr *trace.Trace) (*mem.Hierarchy, error) {
	if tr == nil || tr.Len() == 0 {
		return nil, fmt.Errorf("core: empty trace")
	}
	return WarmDonorStream(key, tr.OpenStream(), 0)
}

// WarmDonorStream is WarmDonor over a stream: it builds a donor for key
// and warms it from st's first limit instructions, or to st's end when
// limit is 0. A sampled point's donor warms from a fresh recipe stream
// this way, as far as its full-detail twin's materialised trace reaches
// (see RunSampled).
func WarmDonorStream(key mem.WarmKey, st *trace.InstStream, limit uint64) (*mem.Hierarchy, error) {
	h, err := key.Donor()
	if err != nil {
		return nil, err
	}
	if err := warmHierarchy(h, st, limit); err != nil {
		return nil, err
	}
	return h, nil
}

// warmLineBytes is the instruction-line granularity of the cache warm-up
// (the simulator's IL1 line size, Table 1).
const warmLineBytes = 32

// warmHierarchy replays a workload's whole cache footprint through h:
// first-seen instruction lines (a global dedup, so a loop body's line is
// primed once, at its first occurrence) interleaved with every data
// access, then the wrong-path fetch region. Cold misses are an artefact
// of short runs (see mem.Hierarchy.PrimeFetch); the paper's
// 300M-instruction regions run warm. warm is consumed up to limit
// instructions, or to its end when limit is 0.
//
// It is the one warm-up: a cold CPU and a donor replay a borrowed view
// of the materialised trace to its end, and a sampled point's donor
// replays a fresh recipe stream as far as a materialised trace of its
// budget would reach. A sampled point therefore warms exactly like its
// full-detail twin, including the evictions a footprint larger than the
// L2 inflicts on its own oldest lines (a just-in-time per-window warm
// would hide those and read systematically fast), and forked and cold
// CPUs start bit-identical.
func warmHierarchy(h *mem.Hierarchy, warm *trace.InstStream, limit uint64) error {
	seen := make(map[uint64]struct{})
	last := ^uint64(0)
	var done uint64
	for limit == 0 || done < limit {
		chunk := 8192
		if limit > 0 && limit-done < uint64(chunk) {
			chunk = int(limit - done)
		}
		insts, err := warm.Peek(chunk)
		if err != nil {
			return err
		}
		if len(insts) == 0 {
			break
		}
		for i := range insts {
			in := &insts[i]
			// Consecutive instructions mostly share a line, which the
			// previous one already looked up.
			if line := in.PC &^ (warmLineBytes - 1); line != last {
				last = line
				if _, ok := seen[line]; !ok {
					seen[line] = struct{}{}
					h.PrimeFetch(line)
				}
			}
			if in.Op.IsMem() {
				h.WarmData(in.Addr)
			}
		}
		warm.Skip(len(insts))
		done += uint64(len(insts))
	}
	for pc := uint64(0xF0000000); pc < 0xF0000000+64*4; pc += 32 {
		h.PrimeFetch(pc) // wrong-path region
	}
	return nil
}

// newCPU builds the pipeline around hier and fe. A nil hier builds and
// warms a fresh hierarchy (the cold path), and a nil fe builds fresh
// branch machinery (newFrontEnd). A non-nil hier or fe is adopted
// as-is: the CPU takes sole ownership and mutates it for the rest of
// its life, so callers must hand each CPU its own Fork/Clone and never
// reuse it (the same single-owner contract as the pooled DynInst
// records) — except in a sampled run, whose driver deliberately threads
// one hierarchy and one front end through a strictly sequential series
// of window CPUs.
func newCPU(cfg config.Config, tr *trace.Trace, hier *mem.Hierarchy, arena *Arena, fe *frontEnd) (*CPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if tr == nil || tr.Len() == 0 {
		return nil, fmt.Errorf("core: empty trace")
	}
	if hier == nil {
		hier = mem.NewHierarchy(cfg)
		if err := warmHierarchy(hier, tr.OpenStream(), 0); err != nil {
			return nil, err
		}
	}

	physSpace := cfg.PhysRegs
	if cfg.VirtualRegisters {
		// In virtual-register mode real register pressure is enforced
		// by the vreg tracker; the rename table is only the simulator's
		// dependence-tracking namespace. Its entries recycle at
		// checkpoint commit (later than tag release), so size it far
		// beyond any reachable in-flight count.
		physSpace = 8192 + 2*cfg.VirtualTags
	}

	pool := &instPool{}
	if arena != nil {
		pool = &arena.pool
	}
	c := &CPU{
		cfg:  cfg,
		tr:   tr,
		pool: pool,
		hier: hier,
		fus:  fu.NewPool(cfg),
		rt:   rename.New(physSpace),
		intQ: queue.NewIQ[*DynInst](cfg.IntQueueEntries),
		fpQ:  queue.NewIQ[*DynInst](cfg.FPQueueEntries),
		lq:   lsq.New[*DynInst](cfg.LSQEntries),
	}
	c.window = queue.NewDeque[*DynInst](cfg.ROBEntries)
	// Size the event ring to the longest completion distance a push can
	// schedule, counted from the cycle it is pushed in: an op on the
	// slowest unit, or a load whose address generation is followed by a
	// DL1, L2 and memory miss — or that merges with a fill an earlier
	// load, fetch (IL1 in place of DL1) or prefetch (up to PrefetchDegree
	// cycles behind its demand miss) started. push panics past it.
	slowestUnit := max(cfg.IntAlu.Latency, cfg.IntMul.Latency, cfg.IntDiv.Latency, cfg.FPAlu.Latency)
	wheelSlots := eventWheelSlots(cfg.MemoryLatency + cfg.IL1.LatencyCycles +
		cfg.DL1.LatencyCycles + cfg.L2.LatencyCycles + slowestUnit + cfg.PrefetchDegree + 64)
	if arena != nil {
		if ch := arena.takeChassis(physSpace, wheelSlots); ch != nil {
			c.regs, c.completions, c.issueRetry = ch.regs, ch.wheel, ch.issueRetry
		}
	}
	if c.regs == nil {
		c.regs = make([]physReg, physSpace)
		c.completions = newEventWheel(wheelSlots)
	}
	for l := 0; l < isa.NumLogical; l++ {
		c.regs[c.rt.Lookup(isa.Reg(l))].ready = true
	}
	c.code = tr.Code()
	if fe != nil {
		c.frontEnd = *fe
	} else {
		c.frontEnd = newFrontEnd(cfg, c.code)
	}

	c.policy = newPolicy(c)
	if cfg.VirtualRegisters {
		c.vt = vreg.New(cfg.VirtualTags, cfg.PhysRegs, isa.NumLogical)
	}
	c.lastLoadAddr = 1 << 20
	c.sliqAccept, c.forwardWake = c.acceptFromSLIQ, c.wakeForwardedLoad
	return c, nil
}

// RunOptions bounds a simulation.
type RunOptions struct {
	// MaxInsts stops the run after committing this many instructions
	// (0 means the full trace).
	MaxInsts uint64
	// MaxCycles is a hard cycle bound (0 means 100M).
	MaxCycles int64
	// CollectOccupancy enables the full occupancy distribution needed
	// by Figure 7 (slightly more memory; negligible time).
	CollectOccupancy bool
	// WatchdogCycles panics if no instruction commits for this many
	// cycles, counting from cycle 0 until the first commit (0 means
	// 2M); it exists to catch simulator deadlocks.
	WatchdogCycles int64
	// DisableSkip forces cycle-by-cycle execution, switching off the
	// event-driven clock skip. Results are bit-identical either way —
	// the knob exists for A/B debugging when a future change is
	// suspected of breaking skip equivalence, and therefore never
	// enters result fingerprints.
	DisableSkip bool
}

// InjectExceptionAt arms a precise exception at the given trace
// position: the instruction raises when it first completes, the
// processor rolls back to its checkpoint and re-executes with a
// checkpoint placed exactly before it (the paper's two-pass protocol).
// Checkpoint-family policies only (a no-op under rob and oracle, which
// model no replay mechanism); must be called before Run.
func (c *CPU) InjectExceptionAt(pos int64) {
	if c.exceptArm == nil {
		c.exceptArm = make([]uint8, c.tr.Len())
	}
	c.exceptArm[pos] = 1
}

// exceptPhase returns the exception protocol phase armed at pos (0 when
// none).
func (c *CPU) exceptPhase(pos int64) uint8 {
	if c.exceptArm == nil || pos < 0 {
		return 0
	}
	return c.exceptArm[pos]
}

// branchResolved reports whether the branch at trace position pos
// replays with a known resolution after a checkpoint rollback.
func (c *CPU) branchResolved(pos int64) bool {
	return pos >= 0 && c.knownBranch != nil && c.knownBranch[pos]
}

// markBranchKnown records that b's resolution is carried by the
// recovery hardware, so its replay will not mispredict. The mark is
// never cleared: resolution knowledge is monotone, which is the
// forward-progress guarantee against mispredict livelock. Program
// traces also install b's target, as the rollback hardware writes it.
func (c *CPU) markBranchKnown(b *DynInst) {
	if b.Pos < 0 {
		return
	}
	if c.knownBranch == nil {
		c.knownBranch = make([]bool, c.tr.Len())
	}
	c.knownBranch[b.Pos] = true
	if c.btb != nil {
		c.btb.Install(b.Inst.PC, b.Inst.Target)
	}
}

// Exceptions returns the number of precisely delivered exceptions.
func (c *CPU) Exceptions() uint64 { return c.exceptions }

// SLIQRefused reports whether the SLIQ ever turned an instruction away
// because it was full (false without a SLIQ). A run it never refused is
// the run of every larger SLIQ too (see queue.SLIQ), which sim.Sweep uses.
func (c *CPU) SLIQRefused() bool { return c.sliq != nil && c.sliq.Stats().FullStalls > 0 }

// Run simulates until the instruction target, trace exhaustion, or the
// cycle bound, and returns the collected results.
func (c *CPU) Run(opt RunOptions) stats.Results {
	target := opt.MaxInsts
	if target == 0 || target > uint64(c.tr.Len()) {
		target = uint64(c.tr.Len())
	}
	maxCycles := opt.MaxCycles
	if maxCycles == 0 {
		maxCycles = 100_000_000
	}
	watchdog := opt.WatchdogCycles
	if watchdog == 0 {
		watchdog = 2_000_000
	}
	if opt.CollectOccupancy {
		bound := c.policy.OccupancyBound()
		if bound < 1 {
			bound = 1
		}
		c.occ = stats.NewOccupancy(bound)
	}

	for c.committed < target && c.now < maxCycles {
		c.hier.Expire(c.now)
		c.portsUsed = 0
		c.policy.Commit()
		c.writebackStage()
		c.issueStage()
		c.dispatchStage()

		c.sumInflight += uint64(c.inflight)
		if c.inflight > c.maxInflight {
			c.maxInflight = c.inflight
		}
		if c.occ != nil {
			c.occ.SampleN(1, c.inflight, c.liveFPLong, c.liveFPShort)
		}
		c.now++

		if c.now-c.lastCommitCycle > watchdog {
			panic(fmt.Sprintf("core: no commit progress for %d cycles at cycle %d (%s)",
				watchdog, c.now, c.debugState()))
		}
		if c.fetchExhausted() && c.inflight == 0 && c.completions.Len() == 0 {
			break
		}

		// Event-driven clock skip, evaluated after every loop-exit
		// condition so a jump can never mask one.
		if !opt.DisableSkip {
			sig := c.progressSig()
			if c.skipArmed {
				c.maybeSkip(maxCycles, watchdog)
			}
			if sig == c.skipPrevSig {
				// Two consecutive cycle ends with the same signature:
				// snapshot, making the next cycle a quiescence probe.
				// (A jump lands here too — its signature is unchanged by
				// construction, so the event cycle is probed and
				// naturally disqualifies itself.)
				c.snapSkip()
				c.skipArmed = true
			} else {
				c.skipArmed = false
				c.skipPrevSig = sig
			}
		}
	}
	return c.results()
}

// progressSig summarises the cycle's visible progress in one cheap sum:
// every component moves when (and only when) the pipeline does
// something a quiescent cycle cannot. Equality across two cycle ends is
// only an arming heuristic — a coincidental collision merely takes a
// snapshot that the probe diff then rejects — so the sum needs no
// collision resistance, just sensitivity to real progress.
func (c *CPU) progressSig() uint64 {
	return c.fetched + c.dispatched + c.issued + c.committed +
		c.replayed + c.rollbacks + c.probRecoveries + c.exceptions +
		c.policyActivity + c.nextSeq + uint64(c.lastCommitCycle) +
		uint64(c.completions.Len()) + uint64(c.fetchPos)
}

// snapSkip records the end-of-cycle state the next cycle is diffed
// against (see skipSnap).
func (c *CPU) snapSkip() {
	s := &c.skipSnap
	s.probed = c.probed
	s.wpCounter, s.ckptStallCycles = c.wpCounter, c.ckptStallCycles
	s.wheelLen = c.completions.Len()
	if c.sliq != nil {
		s.sliq = c.sliq.Stats()
	}
	if c.vt != nil {
		s.vt = *c.vt
		s.deferred = len(c.deferredBind)
	}
	s.mem = c.hier.Stats()
}

// maybeSkip runs at the end of an armed cycle — the probe. The diff
// against the snapshot is the probe's exact footprint; if it shows a
// quiescent machine (no fetch, dispatch, issue, completion, retirement
// or recovery — only stall bookkeeping and at most one IL1 fetch
// re-probe), and every way the machine could wake is bounded by a known
// future event, the clock jumps to the earliest such event. The elided
// cycles would each have repeated the probe bit for bit, so replaying
// the probe's footprint once per elided cycle keeps every statistic —
// and the watchdog and MaxCycles semantics — identical to the
// cycle-by-cycle run.
func (c *CPU) maybeSkip(maxCycles, watchdog int64) {
	s := &c.skipSnap

	// Quiescence: the probe moved nothing that distinguishes it from
	// the cycles about to be elided. Under virtual registers every bind,
	// release and deferral moves the tracker or the deferred queue, so an
	// unmoved tracker also means the probe's own drain found the queue
	// waiting on a release, which only a completion or a squash brings.
	if c.probed != s.probed || c.completions.Len() != s.wheelLen {
		return
	}
	if c.sliq != nil && c.sliq.Stats() != s.sliq {
		return
	}
	if c.vt != nil && (*c.vt != s.vt || len(c.deferredBind) != s.deferred) {
		return
	}
	// Memory counters: a stalled-but-ungated front end re-probes its
	// resident IL1 line once per cycle; that is the only hierarchy
	// counter a quiescent cycle may move, and by at most one.
	m := c.hier.Stats()
	fetchProbes := m.IL1.Accesses - s.mem.IL1.Accesses
	if fetchProbes > 1 {
		return
	}
	mm := s.mem
	mm.IL1.Accesses += fetchProbes
	if m != mm {
		return
	}

	// Wake bounds. A ready issue-queue entry can issue as soon as a
	// functional unit frees — a resource outside the event wheel — so
	// its presence vetoes the skip outright.
	if c.intQ.PeekReady() != nil || c.fpQ.PeekReady() != nil {
		return
	}
	// The watchdog must fire on exactly the cycle it would have: cap the
	// jump so the panic cycle executes (and panics) normally.
	if c.policy.CanRetire() {
		return
	}
	bound := min(maxCycles, c.lastCommitCycle+watchdog)
	if c.sliq != nil {
		if w := c.sliq.NextWake(); w >= 0 {
			if w < c.now {
				// An eligible head survived this cycle's drain: it is
				// blocked on queue space or a functional unit, neither
				// of which is event-bounded.
				return
			}
			if w < bound {
				bound = w
			}
		}
	}
	switch {
	case c.now-1 < c.fetchResumeAt:
		// Front end was gated during the probe cycle (the gate lifts
		// for the cycle numbered fetchResumeAt, which may be a plain
		// L2-hit latency with no in-flight fill to observe): it resumes
		// at a known cycle, and if that is the very next cycle nothing
		// can be elided.
		if c.fetchResumeAt <= c.now {
			return
		}
		if c.fetchResumeAt < bound {
			bound = c.fetchResumeAt
		}
	case c.divergedAt == nil:
		// Correct path: the same instruction re-attempts every cycle,
		// so the probe's rejection repeats verbatim — but a pending
		// fill for its line lands at a known cycle and un-stalls the
		// fetch, so it bounds the jump. The probe ran at cycle now-1:
		// ask from there so a fill landing exactly next cycle counts.
		if c.fetchPos < c.tr.Len() {
			if fill := c.hier.FetchFillReady(c.now-1, c.tr.At(c.fetchPos).PC); fill >= 0 && fill < bound {
				bound = fill
			}
		}
	default:
		// Wrong path: the stream varies its op cycle to cycle, so the
		// probe's rejection only repeats when it is op-independent.
		if c.code != nil {
			// Program image: branches and stores map to Nops, so the
			// op classes are IntAlu/IntMul/IntDiv/Load/Nop — all bound
			// for the integer queue. A checkpoint-table stall rejects
			// every op alike, and a full integer queue blocks every op
			// — but only while rename can still hand out a register,
			// because Nops skip the rename check and would otherwise
			// stall on a different counter than destination-carrying
			// ops.
			if c.ckptStallCycles == s.ckptStallCycles &&
				!(c.intQ.Full() && c.rt.FreeCount() > 0) {
				return
			}
			break
		}
		// Synthetic stream: a checkpoint-table stall (Admit rejects
		// every op alike), an empty rename free list (every synthetic
		// op carries a destination), or both issue queues full.
		if c.ckptStallCycles == s.ckptStallCycles && c.rt.FreeCount() > 0 &&
			!(c.intQ.Full() && c.fpQ.Full()) {
			return
		}
	}
	if bound <= c.now {
		return
	}

	target := c.completions.nextDue(bound)
	k := target - c.now
	if k < 1 {
		return
	}
	uk := uint64(k)

	// Replicate the probe's footprint once per elided cycle (deltas are
	// read into locals before the counters move).
	dWp := c.wpCounter - s.wpCounter
	dCkpt := c.ckptStallCycles - s.ckptStallCycles
	c.wpCounter += uk * dWp
	c.ckptStallCycles += uk * dCkpt
	if fetchProbes > 0 {
		c.hier.ReplayFetchHits(uk * fetchProbes)
	}
	c.sumInflight += uk * uint64(c.inflight)
	if c.occ != nil {
		c.occ.SampleN(uk, c.inflight, c.liveFPLong, c.liveFPShort)
	}

	c.now = target
	c.skippedCycles += uk
	c.skipEvents++
	if uk > c.longestSkip {
		c.longestSkip = uk
	}
}

// fetchExhausted reports that no further correct-path instruction can be
// fetched.
func (c *CPU) fetchExhausted() bool {
	return c.divergedAt == nil && c.fetchPos >= c.tr.Len()
}

// iqFor returns the instruction queue for an operation class: FP
// arithmetic uses the floating-point queue, everything else (including
// memory and control) the integer queue, as in the paper.
func (c *CPU) iqFor(op isa.Op) *queue.IQ[*DynInst] {
	if op == isa.FPAlu {
		return c.fpQ
	}
	return c.intQ
}

// results assembles the run's statistics.
func (c *CPU) results() stats.Results {
	r := stats.Results{
		Name:                fmt.Sprintf("%s/%s", c.cfg.Commit, c.tr.Name()),
		Cycles:              c.now,
		Committed:           c.committed,
		Fetched:             c.fetched,
		Dispatched:          c.dispatched,
		Issued:              c.issued,
		Replayed:            c.replayed,
		Rollbacks:           c.rollbacks,
		PseudoROBRecoveries: c.probRecoveries,
		Branch:              c.pred.Stats(),
		Mem:                 c.hier.Stats(),
		Retire:              c.retire,
		MaxInflight:         c.maxInflight,
		Occ:                 c.occ,
		SkippedCycles:       c.skippedCycles,
		SkipEvents:          c.skipEvents,
		LongestSkip:         c.longestSkip,
	}
	if c.now > 0 {
		r.MeanInflight = float64(c.sumInflight) / float64(c.now)
	}
	c.policy.AddStats(&r)
	if c.sliq != nil {
		ss := c.sliq.Stats()
		r.SLIQMoved = ss.Inserted
		r.SLIQWoken = ss.Woken
	}
	// Program-backed workloads surface the LSQ and BTB counters their
	// real addresses make meaningful; synthetic results omit both so
	// their encodings (and every cached result) stay byte-identical.
	if c.code != nil {
		ls := c.lq.Stats()
		r.LSQ = &ls
		if c.btb != nil {
			bs := c.btb.Stats()
			r.BTB = &bs
		}
	}
	return r
}

// debugState renders a short pipeline summary for watchdog panics.
func (c *CPU) debugState() string {
	s := fmt.Sprintf("committed=%d inflight=%d fetchPos=%d intQ=%d/%d fpQ=%d/%d lsq=%d completions=%d",
		c.committed, c.inflight, c.fetchPos,
		c.intQ.Len(), c.intQ.Cap(), c.fpQ.Len(), c.fpQ.Cap(), c.lq.Len(), c.completions.Len())
	s += c.policy.DebugState()
	if c.divergedAt != nil {
		s += fmt.Sprintf(" diverged@%d", c.divergedAt.Seq)
	}
	return s
}
