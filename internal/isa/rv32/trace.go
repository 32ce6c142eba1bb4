package rv32

import (
	"slices"

	"repro/internal/isa"
)

// This file is the bridge between the architectural tier and the timing
// tier: the mapping a Streamer applies as it functionally executes a
// Program, turning every retired RV32 instruction into the pipeline's
// operation classes with real PCs, branch outcomes and targets, and
// effective addresses.
//
// The mapping:
//
//   - ALU, LUI, AUIPC and the shift/compare group -> IntAlu
//   - MUL/MULH/MULHSU/MULHU -> IntMul; DIV/DIVU/REM/REMU -> IntDiv
//   - loads -> Load, stores -> Store (Src1 base, Src2 data), with the
//     executed effective address
//   - conditional branches -> Branch with the architectural outcome and
//     the would-be-taken target
//   - JAL/JALR -> Branch (always taken, with the real target; JALR's
//     target dependence on rs1 is kept as Src1), preceded by an IntAlu
//     writing the link register when rd != x0 — one RV32 jump-and-link
//     becomes two pipeline micro-ops at the same PC
//   - writes to x0 are architectural no-ops and map to Nop; x0 as a
//     source maps to integer register 0, which no mapped instruction
//     ever writes, so it behaves as the always-ready zero register
//
// Loads targeting x0 have no destination to rename and are rejected:
// programs must not use them (none of the shipped ones do).

// reg maps an RV32 register number onto the pipeline's integer class.
func reg(n uint8) isa.Reg { return isa.IntReg(int(n)) }

// aluClass maps a computational RV32 op onto its functional-unit class.
func aluClass(op Op) isa.Op {
	switch op {
	case MUL, MULH, MULHSU, MULHU:
		return isa.IntMul
	case DIV, DIVU, REM, REMU:
		return isa.IntDiv
	default:
		return isa.IntAlu
	}
}

// mapStatic maps one decoded instruction at pc onto its pipeline form:
// operation class and registers, with the dynamic facts (effective
// address, branch outcome and target) left zero. JAL/JALR map to their
// Branch alone. Writes to x0, EBREAK, ECALL and undecodable words map
// to a Nop.
func mapStatic(d Decoded, pc uint64) isa.Inst {
	in := nopAt(pc)
	switch d.Op {
	case LUI, AUIPC:
		in.Op, in.Dest = isa.IntAlu, reg(d.Rd)
	case ADDI, SLTI, SLTIU, XORI, ORI, ANDI, SLLI, SRLI, SRAI:
		in.Op, in.Dest, in.Src1 = isa.IntAlu, reg(d.Rd), reg(d.Rs1)
	case ADD, SUB, SLL, SLT, SLTU, XOR, SRL, SRA, OR, AND,
		MUL, MULH, MULHSU, MULHU, DIV, DIVU, REM, REMU:
		in.Op, in.Dest, in.Src1, in.Src2 = aluClass(d.Op), reg(d.Rd), reg(d.Rs1), reg(d.Rs2)
	case LB, LH, LW, LBU, LHU:
		in.Op, in.Dest, in.Src1 = isa.Load, reg(d.Rd), reg(d.Rs1)
	case SB, SH, SW:
		in.Op, in.Src1, in.Src2 = isa.Store, reg(d.Rs1), reg(d.Rs2)
	case BEQ, BNE, BLT, BGE, BLTU, BGEU:
		in.Op, in.Src1, in.Src2 = isa.Branch, reg(d.Rs1), reg(d.Rs2)
	case JAL:
		in.Op = isa.Branch
	case JALR:
		in.Op, in.Src1 = isa.Branch, reg(d.Rs1)
	}
	if in.Dest == reg(0) {
		return nopAt(pc)
	}
	return in
}

func nopAt(pc uint64) isa.Inst {
	return isa.Inst{Op: isa.Nop, Dest: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone, PC: pc}
}

// Image is the static pipeline view of a program's text, one mapped
// instruction per word. The core fetches from it past an unresolved
// mispredicted branch: wrong-path instructions get the real PCs and
// register dependences of the code at the predicted (wrong) target,
// while side-effecting classes are neutralised — stores, branches and
// jumps become Nops (a wrong-path store must not drain, and a
// wrong-path branch must not redirect fetch), and load addresses are
// left for the core's wrong-path address model to fill in.
type Image struct {
	base uint64
	code []isa.Inst
}

// mapText maps a predecoded text word by word through mapStatic.
func mapText(text []Decoded) []isa.Inst {
	code := make([]isa.Inst, len(text))
	for i, d := range text {
		code[i] = mapStatic(d, uint64(TextBase)+uint64(i)*4)
	}
	return code
}

// newImage derives the static image from a mapped text (which it does
// not modify) by neutralising its stores, branches and jumps.
func newImage(mapped []isa.Inst) *Image {
	img := &Image{base: uint64(TextBase), code: slices.Clone(mapped)}
	for i, in := range img.code {
		if in.Op == isa.Store || in.Op == isa.Branch {
			img.code[i] = nopAt(in.PC)
		}
	}
	return img
}

// Len returns the number of static instructions.
func (im *Image) Len() int { return len(im.code) }

// IndexOf returns the static index of pc, if it lies inside the text.
func (im *Image) IndexOf(pc uint64) (int, bool) {
	if pc < im.base || (pc-im.base)%4 != 0 {
		return 0, false
	}
	i := int((pc - im.base) / 4)
	if i >= len(im.code) {
		return 0, false
	}
	return i, true
}

// At returns the static instruction at index i.
func (im *Image) At(i int) isa.Inst { return im.code[i] }
