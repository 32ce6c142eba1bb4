// Package isa defines the instruction set architecture used by the
// simulator: operation classes, logical registers, and the static and
// dynamic instruction representations.
//
// The ISA is a small RISC-like machine with 32 integer and 32
// floating-point logical registers, which matches the 32-bit
// per-register-class dependence masks used by the Slow Lane Instruction
// Queuing mechanism (Cristal et al., HPCA 2004, section 3).
package isa

import "fmt"

// NumIntRegs and NumFPRegs are the logical register file sizes per class.
// They are fixed at 32 so that a dependence mask over one class fits in a
// 32-bit word, exactly as the paper's SLIQ dependence-tracking hardware
// assumes.
const (
	NumIntRegs = 32
	NumFPRegs  = 32

	// NumLogical is the total logical register name space. Integer
	// registers occupy [0, NumIntRegs) and floating-point registers
	// occupy [NumIntRegs, NumLogical).
	NumLogical = NumIntRegs + NumFPRegs
)

// Reg names a logical register. The zero integer register (R0) is a normal
// register in this ISA (it is not hard-wired to zero). RegNone marks an
// absent operand.
type Reg int8

// RegNone marks "no register" for instructions without a destination or
// with fewer than two sources.
const RegNone Reg = -1

// IntReg returns the i'th integer logical register.
func IntReg(i int) Reg {
	if i < 0 || i >= NumIntRegs {
		panic(fmt.Sprintf("isa: integer register index %d out of range", i))
	}
	return Reg(i)
}

// FPReg returns the i'th floating-point logical register.
func FPReg(i int) Reg {
	if i < 0 || i >= NumFPRegs {
		panic(fmt.Sprintf("isa: fp register index %d out of range", i))
	}
	return Reg(NumIntRegs + i)
}

// Valid reports whether r names an actual logical register.
func (r Reg) Valid() bool { return r >= 0 && r < NumLogical }

// IsFP reports whether r belongs to the floating-point class.
func (r Reg) IsFP() bool { return r >= NumIntRegs && r < NumLogical }

// String implements fmt.Stringer ("r3", "f7", or "-").
func (r Reg) String() string {
	switch {
	case r == RegNone:
		return "-"
	case r.IsFP():
		return fmt.Sprintf("f%d", int(r)-NumIntRegs)
	case r.Valid():
		return fmt.Sprintf("r%d", int(r))
	default:
		return fmt.Sprintf("reg(%d)", int(r))
	}
}

// Op is an operation class. Operation classes map one-to-one onto the
// functional-unit classes of Table 1 in the paper plus the memory and
// control operations.
type Op uint8

// Operation classes.
const (
	// Nop does nothing; it still occupies pipeline resources.
	Nop Op = iota
	// IntAlu is a single-cycle integer operation (add, logic, compare).
	IntAlu
	// IntMul is a pipelined integer multiply (latency 3, repeat 1).
	IntMul
	// IntDiv is an unpipelined integer divide (latency 20, repeat 20).
	IntDiv
	// FPAlu is a pipelined floating-point operation (latency 2, repeat 1).
	FPAlu
	// Load reads memory into a register.
	Load
	// Store writes a register to memory at commit time.
	Store
	// Branch is a conditional branch, predicted by the branch predictor.
	Branch

	numOps
)

// NumOps is the number of distinct operation classes.
const NumOps = int(numOps)

var opNames = [NumOps]string{
	Nop:    "nop",
	IntAlu: "ialu",
	IntMul: "imul",
	IntDiv: "idiv",
	FPAlu:  "fpalu",
	Load:   "load",
	Store:  "store",
	Branch: "branch",
}

// String implements fmt.Stringer.
func (o Op) String() string {
	if int(o) < NumOps {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsMem reports whether the operation accesses data memory.
func (o Op) IsMem() bool { return o == Load || o == Store }

// HasDest reports whether the operation class produces a register result.
// Stores, branches and nops do not write a register.
func (o Op) HasDest() bool {
	switch o {
	case IntAlu, IntMul, IntDiv, FPAlu, Load:
		return true
	}
	return false
}

// Inst is one dynamic instruction as produced by a workload generator.
// It is a value type; the pipeline wraps it in its own bookkeeping record.
type Inst struct {
	// Op is the operation class.
	Op Op
	// Dest is the destination logical register, or RegNone.
	Dest Reg
	// Src1 and Src2 are source logical registers, or RegNone. For
	// stores, Src1 is the address base and Src2 is the data register.
	Src1, Src2 Reg
	// Addr is the effective byte address for loads and stores. The
	// generator computes it; the timing model consumes it.
	Addr uint64
	// PC is the instruction address, used by the branch predictor.
	PC uint64
	// Taken is the architecturally correct branch outcome (branches only).
	Taken bool
	// Target is the branch's taken-path target address (branches only).
	// Program-backed workloads set it so the branch-target buffer has a
	// real address to predict; synthetic generators leave it zero, which
	// keeps them on the positional prediction model.
	Target uint64
}

// String renders a short human-readable form, e.g.
// "load f3 <- [0x10040] (r1)".
func (in Inst) String() string {
	switch in.Op {
	case Load:
		return fmt.Sprintf("load %v <- [%#x] (%v)", in.Dest, in.Addr, in.Src1)
	case Store:
		return fmt.Sprintf("store [%#x] <- %v (%v)", in.Addr, in.Src2, in.Src1)
	case Branch:
		t := "nt"
		if in.Taken {
			t = "t"
		}
		return fmt.Sprintf("branch@%#x %v,%v %s", in.PC, in.Src1, in.Src2, t)
	case Nop:
		return "nop"
	default:
		return fmt.Sprintf("%v %v <- %v,%v", in.Op, in.Dest, in.Src1, in.Src2)
	}
}

// Validate checks structural invariants of the instruction and returns a
// descriptive error for malformed instructions. Generators use it in tests;
// the pipeline assumes instructions are valid.
func (in Inst) Validate() error {
	if int(in.Op) >= NumOps {
		return fmt.Errorf("isa: unknown op %d", in.Op)
	}
	if in.Op.HasDest() {
		if !in.Dest.Valid() {
			return fmt.Errorf("isa: %v requires a destination, got %v", in.Op, in.Dest)
		}
	} else if in.Dest != RegNone {
		return fmt.Errorf("isa: %v must not have a destination, got %v", in.Op, in.Dest)
	}
	for _, s := range [2]Reg{in.Src1, in.Src2} {
		if s != RegNone && !s.Valid() {
			return fmt.Errorf("isa: invalid source register %d", s)
		}
	}
	if in.Op.IsMem() && in.Addr == 0 {
		return fmt.Errorf("isa: %v has zero address", in.Op)
	}
	if in.Op == Load && in.Dest == RegNone {
		return fmt.Errorf("isa: load without destination")
	}
	if in.Op == Store && in.Src2 == RegNone {
		return fmt.Errorf("isa: store without data source")
	}
	return nil
}
