package trace

import (
	"testing"

	"repro/internal/isa"
)

func generators() map[string]func(n int) *Trace {
	return map[string]func(n int) *Trace{
		"stream":       Stream,
		"strided":      func(n int) *Trace { return StridedStream(n, 8) },
		"stencil":      Stencil,
		"reduction":    Reduction,
		"blocked":      Blocked,
		"pointerchase": PointerChase,
		"fpmix":        func(n int) *Trace { return FPMix(n, 7) },
	}
}

func TestGeneratorsProduceValidTraces(t *testing.T) {
	for name, gen := range generators() {
		t.Run(name, func(t *testing.T) {
			tr := gen(5000)
			if tr.Len() != 5000 {
				t.Fatalf("len = %d, want exactly 5000", tr.Len())
			}
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
			if tr.Name() == "" {
				t.Fatal("trace must be named")
			}
		})
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	for name, gen := range generators() {
		t.Run(name, func(t *testing.T) {
			a, b := gen(3000), gen(3000)
			for i := int64(0); i < a.Len(); i++ {
				if a.At(i) != b.At(i) {
					t.Fatalf("instruction %d differs between identical generations", i)
				}
			}
		})
	}
}

func TestFPMixSeedChangesOutcomes(t *testing.T) {
	a, b := FPMix(20000, 1), FPMix(20000, 2)
	diff := false
	for i := int64(0); i < a.Len(); i++ {
		if a.At(i).Taken != b.At(i).Taken {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("different seeds should change branch outcomes")
	}
}

func TestFPMixInstructionMix(t *testing.T) {
	tr := FPMix(100000, 42)
	counts := tr.OpCounts()
	total := float64(tr.Len())
	frac := func(op isa.Op) float64 { return float64(counts[op]) / total }

	// SPECfp-like bands (README, "Workloads").
	if f := frac(isa.Load); f < 0.20 || f > 0.45 {
		t.Errorf("load fraction %.2f outside [0.20, 0.45]", f)
	}
	if f := frac(isa.Store); f < 0.05 || f > 0.15 {
		t.Errorf("store fraction %.2f outside [0.05, 0.15]", f)
	}
	if f := frac(isa.FPAlu); f < 0.25 || f > 0.60 {
		t.Errorf("FP fraction %.2f outside [0.25, 0.60]", f)
	}
	if f := frac(isa.Branch); f <= 0 || f > 0.05 {
		t.Errorf("branch fraction %.2f outside (0, 0.05]", f)
	}
}

func TestMixRegisterWindowsDisjoint(t *testing.T) {
	// No FP register may be written by two different kernels; the
	// shared constant register must never be written.
	tr := FPMix(100000, 42)
	writerPC := map[isa.Reg]uint64{} // reg -> PC region (high bits)
	for i := int64(0); i < tr.Len(); i++ {
		in := tr.At(i)
		if in.Dest == isa.RegNone || !in.Dest.IsFP() {
			continue
		}
		if in.Dest == constFP {
			t.Fatalf("constant register written at pos %d: %v", i, in)
		}
		region := in.PC >> 12
		if prev, ok := writerPC[in.Dest]; ok && prev != region {
			t.Fatalf("register %v written from PC regions %#x and %#x", in.Dest, prev, region)
		}
		writerPC[in.Dest] = region
	}
}

func TestMixWeightsValidate(t *testing.T) {
	if err := DefaultWeights().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (MixWeights{}).Validate(); err == nil {
		t.Error("zero weights must be invalid")
	}
	if err := (MixWeights{Stream: -1, Strided: 2}).Validate(); err == nil {
		t.Error("negative weight must be invalid")
	}
}

func TestStridedStreamTouchesDistinctLines(t *testing.T) {
	tr := StridedStream(8000, 8)
	lines := map[uint64]bool{}
	loads := 0
	for i := int64(0); i < tr.Len(); i++ {
		in := tr.At(i)
		if in.Op == isa.Load {
			loads++
			lines[in.Addr>>6] = true
		}
	}
	// Stride 8 on 8-byte elements = one 64-byte line per element per
	// array: lines should be nearly as numerous as loads.
	if float64(len(lines)) < 0.9*float64(loads) {
		t.Errorf("strided stream reuses lines: %d lines for %d loads", len(lines), loads)
	}
}

func TestPointerChaseIsSerial(t *testing.T) {
	tr := PointerChase(1000)
	for i := int64(0); i < tr.Len(); i++ {
		in := tr.At(i)
		if in.Op == isa.Load && (in.Dest != in.Src1) {
			t.Fatalf("pointer chase load must chain through one register: %v", in)
		}
	}
}

func TestBranchOutcomesMostlyTaken(t *testing.T) {
	tr := FPMix(100000, 42)
	taken, total := 0, 0
	for i := int64(0); i < tr.Len(); i++ {
		in := tr.At(i)
		if in.Op == isa.Branch {
			total++
			if in.Taken {
				taken++
			}
		}
	}
	if total == 0 {
		t.Fatal("mix must contain branches")
	}
	if f := float64(taken) / float64(total); f < 0.7 {
		t.Errorf("loop-dominated code should be mostly taken: %.2f", f)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	tr := Stream(100)
	tr.insts[50].Dest = isa.Reg(99)
	if err := tr.Validate(); err == nil {
		t.Error("corrupted trace must fail validation")
	}
}

func TestPRNGDeterminism(t *testing.T) {
	a, b := newPRNG(5), newPRNG(5)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("prng must be deterministic")
		}
	}
	if newPRNG(0).next() == 0 {
		t.Error("zero seed must be remapped")
	}
	p := newPRNG(9)
	for i := 0; i < 100; i++ {
		if f := p.float(); f < 0 || f >= 1 {
			t.Fatalf("float out of range: %v", f)
		}
		if v := p.intn(10); v < 0 || v >= 10 {
			t.Fatalf("intn out of range: %v", v)
		}
	}
}

func TestRegWindowPanics(t *testing.T) {
	w := regWindow{intBase: 0, intN: 2, fpBase: 0, fpN: 2}
	for _, fn := range []func(){
		func() { w.r(2) },
		func() { w.r(-1) },
		func() { w.f(2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
