package fu

import (
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
)

func pool() *Pool { return NewPool(config.Default()) }

func TestClassFor(t *testing.T) {
	cases := map[isa.Op]Class{
		isa.IntAlu: ClassIntAlu,
		isa.IntMul: ClassIntMulDiv,
		isa.IntDiv: ClassIntMulDiv,
		isa.FPAlu:  ClassFP,
		isa.Load:   ClassIntAlu,
		isa.Store:  ClassIntAlu,
		isa.Branch: ClassIntAlu,
		isa.Nop:    ClassIntAlu,
	}
	for op, want := range cases {
		if got := ClassFor(op); got != want {
			t.Errorf("ClassFor(%v) = %v, want %v", op, got, want)
		}
	}
}

func TestLatencies(t *testing.T) {
	cases := map[isa.Op]int64{
		isa.IntAlu: 1, isa.IntMul: 3, isa.IntDiv: 20, isa.FPAlu: 2,
		isa.Load: 1, // address generation on an integer ALU
	}
	for op, want := range cases {
		if done, ok := pool().TryIssue(op, 100); !ok || done != 100+want {
			t.Errorf("TryIssue(%v, 100) = %d, %v; want %d, true", op, done, ok, 100+want)
		}
	}
}

func TestPipelinedIssue(t *testing.T) {
	p := pool()
	// 4 FP units, repeat 1: four issues per cycle succeed, the fifth
	// fails (structural hazard).
	for i := 0; i < 4; i++ {
		done, ok := p.TryIssue(isa.FPAlu, 10)
		if !ok || done != 12 {
			t.Fatalf("fp issue %d: done=%d ok=%v", i, done, ok)
		}
	}
	if _, ok := p.TryIssue(isa.FPAlu, 10); ok {
		t.Fatal("fifth FP issue in one cycle must fail")
	}
	// Next cycle all units are free again (fully pipelined).
	if _, ok := p.TryIssue(isa.FPAlu, 11); !ok {
		t.Fatal("pipelined unit must accept next cycle")
	}
}

func TestUnpipelinedDivide(t *testing.T) {
	p := pool()
	// 2 divide units, latency/repeat 20/20.
	if done, ok := p.TryIssue(isa.IntDiv, 0); !ok || done != 20 {
		t.Fatalf("div 1: done=%d ok=%v", done, ok)
	}
	if done, ok := p.TryIssue(isa.IntDiv, 0); !ok || done != 20 {
		t.Fatalf("div 2: done=%d ok=%v", done, ok)
	}
	if _, ok := p.TryIssue(isa.IntDiv, 5); ok {
		t.Fatal("both dividers busy: issue must fail")
	}
	if _, ok := p.TryIssue(isa.IntDiv, 19); ok {
		t.Fatal("dividers still busy at cycle 19")
	}
	if _, ok := p.TryIssue(isa.IntDiv, 20); !ok {
		t.Fatal("dividers free at cycle 20")
	}
}

func TestMulDivShareUnits(t *testing.T) {
	p := pool()
	// A divide occupies the shared unit; multiplies contend with it.
	p.TryIssue(isa.IntDiv, 0)
	p.TryIssue(isa.IntDiv, 0)
	if _, ok := p.TryIssue(isa.IntMul, 1); ok {
		t.Fatal("multiply must contend with in-flight divides")
	}
	if done, ok := p.TryIssue(isa.IntMul, 20); !ok || done != 23 {
		t.Fatalf("multiply after divides: done=%d ok=%v", done, ok)
	}
}

func TestClassString(t *testing.T) {
	if ClassIntAlu.String() != "intalu" || ClassFP.String() != "fp" {
		t.Error("class names wrong")
	}
	if Class(9).String() == "" {
		t.Error("unknown class must render")
	}
}
