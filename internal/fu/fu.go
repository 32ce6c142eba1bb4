// Package fu models the functional units of the simulated processor as
// latency/repeat pipelines, following Table 1 of the paper: 4 integer
// ALUs (1/1), 2 integer multiply/divide units (3/1 multiply, 20/20
// divide, sharing hardware), and 4 FP units (2/1).
//
// Each unit tracks the cycle at which it can next initiate an operation.
// A fully pipelined unit (repeat 1) can start one operation per cycle; an
// unpipelined divider blocks for its full latency.
package fu

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/isa"
)

// Class identifies a functional-unit class.
type Class uint8

// Functional-unit classes. Mul and Div are distinct classes that share
// the same physical units.
const (
	ClassIntAlu Class = iota
	ClassIntMulDiv
	ClassFP
	numClasses
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassIntAlu:
		return "intalu"
	case ClassIntMulDiv:
		return "intmuldiv"
	case ClassFP:
		return "fp"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// ClassFor maps an operation to the functional-unit class that executes
// it. Loads and stores use an integer ALU for address generation;
// branches resolve on an integer ALU; nops also pass through an ALU slot.
func ClassFor(op isa.Op) Class {
	switch op {
	case isa.IntMul, isa.IntDiv:
		return ClassIntMulDiv
	case isa.FPAlu:
		return ClassFP
	default:
		return ClassIntAlu
	}
}

// opTiming is the latency/repeat pair for one operation on its unit.
type opTiming struct {
	latency int64
	repeat  int64
}

// Pool is a set of functional units. It is not safe for concurrent use;
// the simulator is single-threaded by design.
type Pool struct {
	// nextFree[c][u] is the first cycle unit u of class c can start a
	// new operation.
	nextFree [numClasses][]int64
	timing   [isa.NumOps]opTiming
}

// NewPool builds the functional units from the architectural config.
func NewPool(cfg config.Config) *Pool {
	p := &Pool{}
	p.nextFree[ClassIntAlu] = make([]int64, cfg.IntAlu.Count)
	p.nextFree[ClassIntMulDiv] = make([]int64, cfg.IntMul.Count)
	p.nextFree[ClassFP] = make([]int64, cfg.FPAlu.Count)

	set := func(op isa.Op, f config.FUConfig) {
		p.timing[op] = opTiming{latency: int64(f.Latency), repeat: int64(f.Repeat)}
	}
	set(isa.IntAlu, cfg.IntAlu)
	set(isa.IntMul, cfg.IntMul)
	set(isa.IntDiv, cfg.IntDiv)
	set(isa.FPAlu, cfg.FPAlu)
	// Memory ops and branches use an ALU slot for address generation /
	// resolution; loads add memory latency on top (handled by the core).
	set(isa.Load, cfg.IntAlu)
	set(isa.Store, cfg.IntAlu)
	set(isa.Branch, cfg.IntAlu)
	set(isa.Nop, cfg.IntAlu)
	return p
}

// TryIssue attempts to start op at cycle now. On success it reserves a
// unit and returns the cycle the result is produced. On failure (all
// units of the class busy this cycle) it returns ok=false; the caller
// should retry next cycle.
func (p *Pool) TryIssue(op isa.Op, now int64) (done int64, ok bool) {
	class := ClassFor(op)
	units := p.nextFree[class]
	for i, free := range units {
		if free <= now {
			t := p.timing[op]
			units[i] = now + t.repeat
			return now + t.latency, true
		}
	}
	return 0, false
}
