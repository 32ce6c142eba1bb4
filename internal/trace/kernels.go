package trace

import "repro/internal/isa"

// iterSource emits one loop iteration of a kernel per call. Kernel
// instances own disjoint register windows and address regions so they
// can be interleaved without aliasing.
type iterSource interface {
	emitIter(b *builder)
}

// elem is the element size in bytes of every array (double precision).
const elem = 8

// constFP is a shared loop-invariant register: no kernel ever writes it,
// so reads are always ready (coefficient/constant operands).
var constFP = isa.FPReg(isa.NumFPRegs - 1)

// region returns the base address of the i'th kernel address region
// (256 MB apart, never zero).
func region(i int) uint64 { return uint64(i+1) << 28 }

// ---------------------------------------------------------------------
// Stream: a[i] = b[i]*c[i] + d[i], arrays far larger than L2.
// With stride 1 one load in eight touches a new 64-byte L2 line; with
// stride 8 every load does, so StrideElems dials the L2 miss rate.
// ---------------------------------------------------------------------

type streamKernel struct {
	win    regWindow
	pcBase uint64
	baseA  uint64 // output array
	baseB  uint64
	baseC  uint64
	baseD  uint64
	foot   uint64 // footprint per array, in elements
	stride uint64 // in elements
	unroll int    // elements per loop-back branch
	i      uint64 // current element index
	rng    *prng
}

func newStreamKernel(win regWindow, reg int, pcBase uint64, strideElems int, rng *prng) *streamKernel {
	base := region(reg)
	const footBytes = 8 << 20 // 8 MB per array, 16x the 512 KB L2
	return &streamKernel{
		win:    win,
		pcBase: pcBase,
		baseA:  base,
		baseB:  base + 1*footBytes,
		baseC:  base + 2*footBytes,
		baseD:  base + 3*footBytes,
		foot:   footBytes / elem,
		stride: uint64(strideElems),
		unroll: 128,
		rng:    rng,
	}
}

// emitIter emits one unrolled loop iteration: unroll element bodies
// followed by the index update and the loop-back branch. The long basic
// block mirrors unrolled SPEC2000fp inner loops (README, "Workloads") and
// is what lets the checkpoint-at-branches heuristic form large windows.
func (k *streamKernel) emitIter(b *builder) {
	w, pc := k.win, k.pcBase
	for u := 0; u < k.unroll; u++ {
		idx := (k.i * k.stride) % k.foot
		off := idx * elem
		upc := pc + uint64(u)*32
		b.emit(isa.Inst{Op: isa.Load, Dest: w.f(0), Src1: w.r(0), Addr: k.baseB + off, PC: upc})
		b.emit(isa.Inst{Op: isa.Load, Dest: w.f(1), Src1: w.r(0), Addr: k.baseC + off, PC: upc + 4})
		b.emit(isa.Inst{Op: isa.FPAlu, Dest: w.f(2), Src1: w.f(0), Src2: w.f(1), PC: upc + 8})
		b.emit(isa.Inst{Op: isa.Load, Dest: w.f(3), Src1: w.r(0), Addr: k.baseD + off, PC: upc + 12})
		b.emit(isa.Inst{Op: isa.FPAlu, Dest: w.f(4), Src1: w.f(2), Src2: w.f(3), PC: upc + 16})
		// Load-independent coefficient work: the source is the shared
		// loop-invariant register (never written), so these issue
		// immediately (SPECfp loops carry a sizeable fraction of such
		// arithmetic).
		b.emit(isa.Inst{Op: isa.FPAlu, Dest: w.f(5), Src1: constFP, Src2: constFP, PC: upc + 20})
		b.emit(isa.Inst{Op: isa.FPAlu, Dest: w.f(5), Src1: constFP, Src2: constFP, PC: upc + 24})
		b.emit(isa.Inst{Op: isa.Store, Src1: w.r(0), Src2: w.f(4), Dest: isa.RegNone, Addr: k.baseA + off, PC: upc + 28})
		k.i++
	}
	end := pc + uint64(k.unroll)*32
	b.emit(isa.Inst{Op: isa.IntAlu, Dest: w.r(0), Src1: w.r(0), Src2: isa.RegNone, PC: end})
	b.emit(isa.Inst{Op: isa.Branch, Dest: isa.RegNone, Src1: w.r(0), Src2: isa.RegNone, PC: end + 4, Taken: true})
}

// ---------------------------------------------------------------------
// Stencil: a[i] = w0*b[i-1] + w1*b[i] + w2*b[i+1]; heavy line reuse, so
// most loads hit while streaming still misses on each new line.
// ---------------------------------------------------------------------

type stencilKernel struct {
	win    regWindow
	pcBase uint64
	baseA  uint64
	baseB  uint64
	baseP  uint64 // next plane, walked at L2-line stride (misses)
	foot   uint64
	unroll int
	i      uint64
}

func newStencilKernel(win regWindow, reg int, pcBase uint64) *stencilKernel {
	base := region(reg)
	const footBytes = 8 << 20
	return &stencilKernel{
		win:    win,
		pcBase: pcBase,
		baseA:  base,
		baseB:  base + footBytes,
		baseP:  base + 2*footBytes,
		foot:   footBytes / elem,
		unroll: 48,
	}
}

func (k *stencilKernel) emitIter(b *builder) {
	w, pc := k.win, k.pcBase
	for u := 0; u < k.unroll; u++ {
		i := k.i%(k.foot-2) + 1
		off := i * elem
		// The next-plane load streams at unit stride, so roughly one
		// load in eight touches a new L2 line: the moderately
		// memory-bound member of the suite (mgrid-like).
		pOff := (k.i % k.foot) * elem
		upc := pc + uint64(u)*44
		b.emit(isa.Inst{Op: isa.Load, Dest: w.f(0), Src1: w.r(0), Addr: k.baseB + off - elem, PC: upc})
		b.emit(isa.Inst{Op: isa.Load, Dest: w.f(1), Src1: w.r(0), Addr: k.baseB + off, PC: upc + 4})
		b.emit(isa.Inst{Op: isa.Load, Dest: w.f(2), Src1: w.r(0), Addr: k.baseB + off + elem, PC: upc + 8})
		b.emit(isa.Inst{Op: isa.Load, Dest: w.f(6), Src1: w.r(0), Addr: k.baseP + pOff, PC: upc + 12})
		b.emit(isa.Inst{Op: isa.FPAlu, Dest: w.f(3), Src1: w.f(0), Src2: isa.RegNone, PC: upc + 16})
		b.emit(isa.Inst{Op: isa.FPAlu, Dest: w.f(4), Src1: w.f(1), Src2: isa.RegNone, PC: upc + 20})
		b.emit(isa.Inst{Op: isa.FPAlu, Dest: w.f(3), Src1: w.f(3), Src2: w.f(4), PC: upc + 24})
		b.emit(isa.Inst{Op: isa.FPAlu, Dest: w.f(5), Src1: w.f(2), Src2: w.f(6), PC: upc + 28})
		b.emit(isa.Inst{Op: isa.FPAlu, Dest: w.f(3), Src1: w.f(3), Src2: w.f(5), PC: upc + 32})
		b.emit(isa.Inst{Op: isa.Store, Src1: w.r(0), Src2: w.f(3), Dest: isa.RegNone, Addr: k.baseA + off, PC: upc + 36})
		k.i++
	}
	end := pc + uint64(k.unroll)*44
	b.emit(isa.Inst{Op: isa.IntAlu, Dest: w.r(0), Src1: w.r(0), Src2: isa.RegNone, PC: end})
	b.emit(isa.Inst{Op: isa.Branch, Dest: isa.RegNone, Src1: w.r(0), Src2: isa.RegNone, PC: end + 4, Taken: true})
}

// ---------------------------------------------------------------------
// Reduction: two-way unrolled dot product; the accumulator chains limit
// ILP no matter how large the window is.
// ---------------------------------------------------------------------

type reductionKernel struct {
	win    regWindow
	pcBase uint64
	baseA  uint64
	baseB  uint64
	foot   uint64
	unroll int
	i      uint64
}

func newReductionKernel(win regWindow, reg int, pcBase uint64) *reductionKernel {
	base := region(reg)
	const footBytes = 8 << 20
	return &reductionKernel{
		win:    win,
		pcBase: pcBase,
		baseA:  base,
		baseB:  base + footBytes,
		foot:   footBytes / elem,
		unroll: 120,
	}
}

func (k *reductionKernel) emitIter(b *builder) {
	w, pc := k.win, k.pcBase
	for u := 0; u < k.unroll; u++ {
		i := k.i % k.foot
		off := i * elem
		upc := pc + uint64(u)*32
		// Register-blocked: both loaded values feed two accumulator
		// chains, keeping the load fraction SPECfp-like (~25%).
		b.emit(isa.Inst{Op: isa.Load, Dest: w.f(0), Src1: w.r(0), Addr: k.baseA + off, PC: upc})
		b.emit(isa.Inst{Op: isa.Load, Dest: w.f(1), Src1: w.r(0), Addr: k.baseB + off, PC: upc + 4})
		b.emit(isa.Inst{Op: isa.FPAlu, Dest: w.f(2), Src1: w.f(0), Src2: w.f(1), PC: upc + 8})
		b.emit(isa.Inst{Op: isa.FPAlu, Dest: w.f(5), Src1: w.f(5), Src2: w.f(2), PC: upc + 12})
		b.emit(isa.Inst{Op: isa.FPAlu, Dest: w.f(3), Src1: w.f(0), Src2: w.f(2), PC: upc + 16})
		b.emit(isa.Inst{Op: isa.FPAlu, Dest: w.f(6), Src1: w.f(6), Src2: w.f(3), PC: upc + 20})
		b.emit(isa.Inst{Op: isa.FPAlu, Dest: w.f(4), Src1: w.f(1), Src2: w.f(3), PC: upc + 24})
		b.emit(isa.Inst{Op: isa.FPAlu, Dest: w.f(4), Src1: w.f(4), Src2: w.f(2), PC: upc + 28})
		k.i++
	}
	end := pc + uint64(k.unroll)*32
	b.emit(isa.Inst{Op: isa.IntAlu, Dest: w.r(0), Src1: w.r(0), Src2: isa.RegNone, PC: end})
	b.emit(isa.Inst{Op: isa.Branch, Dest: isa.RegNone, Src1: w.r(0), Src2: isa.RegNone, PC: end + 4, Taken: true})
}

// ---------------------------------------------------------------------
// Blocked: cache-blocked matrix-vector product with a 64 KB working set
// that lives in L2 (and mostly in DL1); the high-IPC compute phase.
// ---------------------------------------------------------------------

type blockedKernel struct {
	win    regWindow
	pcBase uint64
	baseM  uint64
	baseX  uint64
	baseY  uint64
	mFoot  uint64 // elements in the matrix block
	vFoot  uint64 // elements in each vector
	unroll int
	i      uint64
}

func newBlockedKernel(win regWindow, reg int, pcBase uint64) *blockedKernel {
	base := region(reg)
	return &blockedKernel{
		win:    win,
		pcBase: pcBase,
		baseM:  base,
		baseX:  base + (64 << 10),
		baseY:  base + (64<<10 + 8<<10),
		mFoot:  (64 << 10) / elem, // 64 KB block
		vFoot:  (8 << 10) / elem,  // 8 KB vectors
		unroll: 64,
	}
}

func (k *blockedKernel) emitIter(b *builder) {
	w, pc := k.win, k.pcBase
	for u := 0; u < k.unroll; u++ {
		mOff := (k.i % k.mFoot) * elem
		vOff := (k.i % k.vFoot) * elem
		upc := pc + uint64(u)*24
		b.emit(isa.Inst{Op: isa.Load, Dest: w.f(0), Src1: w.r(0), Addr: k.baseM + mOff, PC: upc})
		b.emit(isa.Inst{Op: isa.Load, Dest: w.f(1), Src1: w.r(0), Addr: k.baseX + vOff, PC: upc + 4})
		b.emit(isa.Inst{Op: isa.FPAlu, Dest: w.f(2), Src1: w.f(0), Src2: w.f(1), PC: upc + 8})
		b.emit(isa.Inst{Op: isa.Load, Dest: w.f(3), Src1: w.r(0), Addr: k.baseY + vOff, PC: upc + 12})
		b.emit(isa.Inst{Op: isa.FPAlu, Dest: w.f(4), Src1: w.f(3), Src2: w.f(2), PC: upc + 16})
		b.emit(isa.Inst{Op: isa.Store, Src1: w.r(0), Src2: w.f(4), Dest: isa.RegNone, Addr: k.baseY + vOff, PC: upc + 20})
		k.i++
	}
	end := pc + uint64(k.unroll)*24
	b.emit(isa.Inst{Op: isa.IntAlu, Dest: w.r(0), Src1: w.r(0), Src2: isa.RegNone, PC: end})
	b.emit(isa.Inst{Op: isa.Branch, Dest: isa.RegNone, Src1: w.r(0), Src2: isa.RegNone, PC: end + 4, Taken: true})
}

// ---------------------------------------------------------------------
// PointerChase: serial dependent loads over a random permutation far
// larger than L2; the integer contrast case from the introduction.
// ---------------------------------------------------------------------

type chaseKernel struct {
	win    regWindow
	pcBase uint64
	base   uint64
	nodes  uint64
	cur    uint64 // current node index in the synthetic random walk
	rng    *prng
}

func newChaseKernel(win regWindow, reg int, pcBase uint64, rng *prng) *chaseKernel {
	return &chaseKernel{
		win:    win,
		pcBase: pcBase,
		base:   region(reg),
		nodes:  (32 << 20) / 64, // one node per 64-byte line, 32 MB footprint
		rng:    rng,
	}
}

func (k *chaseKernel) emitIter(b *builder) {
	w, pc := k.win, k.pcBase
	addr := k.base + k.cur*64
	// The next pointer is a deterministic pseudo-random walk; the load's
	// destination register carries the dependence.
	b.emit(isa.Inst{Op: isa.Load, Dest: w.r(1), Src1: w.r(1), Addr: addr, PC: pc})
	b.emit(isa.Inst{Op: isa.IntAlu, Dest: w.r(2), Src1: w.r(1), Src2: isa.RegNone, PC: pc + 4})
	b.emit(isa.Inst{Op: isa.IntAlu, Dest: w.r(3), Src1: w.r(2), Src2: isa.RegNone, PC: pc + 8})
	b.emit(isa.Inst{Op: isa.Branch, Dest: isa.RegNone, Src1: w.r(2), Src2: isa.RegNone, PC: pc + 12, Taken: true})
	k.cur = k.rng.next() % k.nodes
}

// ---------------------------------------------------------------------
// Cond: a short loop with a data-dependent branch taken with probability
// p, giving the gshare predictor realistic (mostly low) miss rates.
// ---------------------------------------------------------------------

type condKernel struct {
	win    regWindow
	pcBase uint64
	base   uint64
	foot   uint64
	pTaken float64
	// loadDep ties the conditional branch to the loaded value instead
	// of the index chain, so mispredicted branches resolve only after
	// the (DL1-missing, L2-hitting) load returns — on small pseudo-ROBs
	// the branch has already left and a checkpoint rollback is needed.
	loadDep bool
	i       uint64
	rng     *prng
}

func newCondKernel(win regWindow, reg int, pcBase uint64, pTaken float64, loadDep bool, rng *prng) *condKernel {
	foot := uint64(16<<10) / elem // cache-resident
	if loadDep {
		foot = (256 << 10) / elem // L2-resident, DL1-thrashed
	}
	return &condKernel{
		win:     win,
		pcBase:  pcBase,
		base:    region(reg),
		foot:    foot,
		pTaken:  pTaken,
		loadDep: loadDep,
		rng:     rng,
	}
}

func (k *condKernel) emitIter(b *builder) {
	w, pc := k.win, k.pcBase
	off := (k.i % k.foot) * elem
	taken := k.rng.float() < k.pTaken
	// The data-dependent branch hangs off the fast index chain, not the
	// load: SPEC2000fp branches resolve quickly ("branch speculation is
	// normally not a problem", section 1) — a branch waiting on an L2
	// miss would put kilocycles of wrong path on every mispredict.
	condSrc := w.r(0)
	if k.loadDep {
		condSrc = w.r(1)
	}
	b.emit(isa.Inst{Op: isa.Load, Dest: w.r(1), Src1: w.r(0), Addr: k.base + off, PC: pc})
	b.emit(isa.Inst{Op: isa.IntAlu, Dest: w.r(2), Src1: condSrc, Src2: isa.RegNone, PC: pc + 4})
	b.emit(isa.Inst{Op: isa.Branch, Dest: isa.RegNone, Src1: w.r(2), Src2: isa.RegNone, PC: pc + 8, Taken: taken})
	b.emit(isa.Inst{Op: isa.IntAlu, Dest: w.r(0), Src1: w.r(0), Src2: isa.RegNone, PC: pc + 12})
	b.emit(isa.Inst{Op: isa.Branch, Dest: isa.RegNone, Src1: w.r(0), Src2: isa.RegNone, PC: pc + 16, Taken: true})
	k.i++
}

// fullWindow is the register window for single-kernel traces.
var fullWindow = regWindow{intBase: 0, intN: isa.NumIntRegs, fpBase: 0, fpN: isa.NumFPRegs}

// generate materialises a generator's recipe. Generators take their
// arguments from code, not the wire, so an invalid recipe (n outside
// [1, MaxRecipeInsts]) is a programming error.
func generate(r Recipe) *Trace {
	tr, err := r.Materialise()
	if err != nil {
		panic(err)
	}
	return tr
}

// Stream generates n instructions of the unit-stride FP triad.
func Stream(n int) *Trace { return generate(Recipe{Kernel: KernelStream, N: n}) }

// StridedStream generates the triad with the given stride in elements;
// stride 8 makes every load touch a new L2 line.
func StridedStream(n, strideElems int) *Trace {
	return generate(Recipe{Kernel: KernelStrided, N: n, Stride: strideElems})
}

// Stencil generates n instructions of the 3-point stencil.
func Stencil(n int) *Trace { return generate(Recipe{Kernel: KernelStencil, N: n}) }

// Reduction generates n instructions of the unrolled dot product.
func Reduction(n int) *Trace { return generate(Recipe{Kernel: KernelReduction, N: n}) }

// Blocked generates n instructions of the cache-blocked matrix-vector
// product.
func Blocked(n int) *Trace { return generate(Recipe{Kernel: KernelBlocked, N: n}) }

// PointerChase generates n instructions of serial dependent misses.
func PointerChase(n int) *Trace { return generate(Recipe{Kernel: KernelPointerChase, N: n}) }
