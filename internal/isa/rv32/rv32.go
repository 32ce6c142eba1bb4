// Package rv32 implements the small RV32I(+M) subset behind the
// simulator's program workloads: a binary instruction codec, a
// label-resolving assembler, and an architectural executor that runs an
// encoded Program to produce the dynamic instruction stream the
// pipeline consumes (see Streamer).
//
// The subset is RV32I minus FENCE/CSR plus the M-extension multiply and
// divide group. EBREAK halts a program; ECALL is decodable but has no
// semantics here and faults the executor. Decode is total over 32-bit
// words — malformed encodings return an error, never a panic — which
// the FuzzDecode target pins.
package rv32

import "fmt"

// Op names one RV32 instruction of the supported subset.
type Op uint8

// Supported instructions.
const (
	opInvalid Op = iota

	LUI
	AUIPC
	JAL
	JALR

	BEQ
	BNE
	BLT
	BGE
	BLTU
	BGEU

	LB
	LH
	LW
	LBU
	LHU
	SB
	SH
	SW

	ADDI
	SLTI
	SLTIU
	XORI
	ORI
	ANDI
	SLLI
	SRLI
	SRAI

	ADD
	SUB
	SLL
	SLT
	SLTU
	XOR
	SRL
	SRA
	OR
	AND

	MUL
	MULH
	MULHSU
	MULHU
	DIV
	DIVU
	REM
	REMU

	ECALL
	EBREAK

	numOps
)

var opNames = [numOps]string{
	LUI: "lui", AUIPC: "auipc", JAL: "jal", JALR: "jalr",
	BEQ: "beq", BNE: "bne", BLT: "blt", BGE: "bge", BLTU: "bltu", BGEU: "bgeu",
	LB: "lb", LH: "lh", LW: "lw", LBU: "lbu", LHU: "lhu",
	SB: "sb", SH: "sh", SW: "sw",
	ADDI: "addi", SLTI: "slti", SLTIU: "sltiu", XORI: "xori", ORI: "ori",
	ANDI: "andi", SLLI: "slli", SRLI: "srli", SRAI: "srai",
	ADD: "add", SUB: "sub", SLL: "sll", SLT: "slt", SLTU: "sltu",
	XOR: "xor", SRL: "srl", SRA: "sra", OR: "or", AND: "and",
	MUL: "mul", MULH: "mulh", MULHSU: "mulhsu", MULHU: "mulhu",
	DIV: "div", DIVU: "divu", REM: "rem", REMU: "remu",
	ECALL: "ecall", EBREAK: "ebreak",
}

// String implements fmt.Stringer.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("rv32op(%d)", uint8(o))
}

// Ops returns every supported instruction, in a stable order. The
// decoder round-trip test iterates it so new instructions cannot be
// added without golden coverage.
func Ops() []Op {
	ops := make([]Op, 0, int(numOps)-1)
	for o := opInvalid + 1; o < numOps; o++ {
		ops = append(ops, o)
	}
	return ops
}

// Decoded is one decoded instruction. Rd/Rs1/Rs2 are register numbers
// (x0..x31); Imm is the sign-extended immediate — for LUI/AUIPC it
// holds the full shifted value (low 12 bits zero), for shifts the
// shift amount, for branches and jumps the byte offset from the
// instruction's own address.
type Decoded struct {
	Op  Op
	Rd  uint8
	Rs1 uint8
	Rs2 uint8
	Imm int32
}

// String renders a debug form, e.g. "addi x5, x5, -1".
func (d Decoded) String() string {
	switch fmtOf(d.Op) {
	case fmtU, fmtJ:
		return fmt.Sprintf("%v x%d, %d", d.Op, d.Rd, d.Imm)
	case fmtI:
		if d.Op == ECALL || d.Op == EBREAK {
			return d.Op.String()
		}
		return fmt.Sprintf("%v x%d, x%d, %d", d.Op, d.Rd, d.Rs1, d.Imm)
	case fmtS:
		return fmt.Sprintf("%v x%d, %d(x%d)", d.Op, d.Rs2, d.Imm, d.Rs1)
	case fmtB:
		return fmt.Sprintf("%v x%d, x%d, %d", d.Op, d.Rs1, d.Rs2, d.Imm)
	default:
		return fmt.Sprintf("%v x%d, x%d, x%d", d.Op, d.Rd, d.Rs1, d.Rs2)
	}
}

// Instruction formats.
const (
	fmtR = iota
	fmtI
	fmtS
	fmtB
	fmtU
	fmtJ
)

func fmtOf(op Op) int {
	switch op {
	case LUI, AUIPC:
		return fmtU
	case JAL:
		return fmtJ
	case JALR, LB, LH, LW, LBU, LHU,
		ADDI, SLTI, SLTIU, XORI, ORI, ANDI, SLLI, SRLI, SRAI,
		ECALL, EBREAK:
		return fmtI
	case SB, SH, SW:
		return fmtS
	case BEQ, BNE, BLT, BGE, BLTU, BGEU:
		return fmtB
	default:
		return fmtR
	}
}

// Major opcodes.
const (
	opcLui    = 0x37
	opcAuipc  = 0x17
	opcJal    = 0x6F
	opcJalr   = 0x67
	opcBranch = 0x63
	opcLoad   = 0x03
	opcStore  = 0x23
	opcOpImm  = 0x13
	opcOp     = 0x33
	opcSystem = 0x73
)

// Decode decodes one 32-bit instruction word. Every unsupported or
// malformed encoding returns a descriptive error; Decode never panics.
func Decode(w uint32) (Decoded, error) {
	opc := w & 0x7F
	rd := uint8((w >> 7) & 0x1F)
	f3 := (w >> 12) & 0x7
	rs1 := uint8((w >> 15) & 0x1F)
	rs2 := uint8((w >> 20) & 0x1F)
	f7 := w >> 25
	bad := func(what string) (Decoded, error) {
		return Decoded{}, fmt.Errorf("rv32: decode %#08x: %s", w, what)
	}
	switch opc {
	case opcLui:
		return Decoded{Op: LUI, Rd: rd, Imm: int32(w & 0xFFFFF000)}, nil
	case opcAuipc:
		return Decoded{Op: AUIPC, Rd: rd, Imm: int32(w & 0xFFFFF000)}, nil
	case opcJal:
		return Decoded{Op: JAL, Rd: rd, Imm: immJ(w)}, nil
	case opcJalr:
		if f3 != 0 {
			return bad(fmt.Sprintf("jalr funct3 %d", f3))
		}
		return Decoded{Op: JALR, Rd: rd, Rs1: rs1, Imm: immI(w)}, nil
	case opcBranch:
		var op Op
		switch f3 {
		case 0:
			op = BEQ
		case 1:
			op = BNE
		case 4:
			op = BLT
		case 5:
			op = BGE
		case 6:
			op = BLTU
		case 7:
			op = BGEU
		default:
			return bad(fmt.Sprintf("branch funct3 %d", f3))
		}
		return Decoded{Op: op, Rs1: rs1, Rs2: rs2, Imm: immB(w)}, nil
	case opcLoad:
		var op Op
		switch f3 {
		case 0:
			op = LB
		case 1:
			op = LH
		case 2:
			op = LW
		case 4:
			op = LBU
		case 5:
			op = LHU
		default:
			return bad(fmt.Sprintf("load funct3 %d", f3))
		}
		return Decoded{Op: op, Rd: rd, Rs1: rs1, Imm: immI(w)}, nil
	case opcStore:
		var op Op
		switch f3 {
		case 0:
			op = SB
		case 1:
			op = SH
		case 2:
			op = SW
		default:
			return bad(fmt.Sprintf("store funct3 %d", f3))
		}
		return Decoded{Op: op, Rs1: rs1, Rs2: rs2, Imm: immS(w)}, nil
	case opcOpImm:
		var op Op
		switch f3 {
		case 0:
			op = ADDI
		case 2:
			op = SLTI
		case 3:
			op = SLTIU
		case 4:
			op = XORI
		case 6:
			op = ORI
		case 7:
			op = ANDI
		case 1:
			if f7 != 0 {
				return bad(fmt.Sprintf("slli funct7 %#x", f7))
			}
			return Decoded{Op: SLLI, Rd: rd, Rs1: rs1, Imm: int32(rs2)}, nil
		case 5:
			switch f7 {
			case 0:
				return Decoded{Op: SRLI, Rd: rd, Rs1: rs1, Imm: int32(rs2)}, nil
			case 0x20:
				return Decoded{Op: SRAI, Rd: rd, Rs1: rs1, Imm: int32(rs2)}, nil
			default:
				return bad(fmt.Sprintf("shift funct7 %#x", f7))
			}
		}
		return Decoded{Op: op, Rd: rd, Rs1: rs1, Imm: immI(w)}, nil
	case opcOp:
		var op Op
		switch f7 {
		case 0:
			op = [8]Op{ADD, SLL, SLT, SLTU, XOR, SRL, OR, AND}[f3]
		case 0x20:
			switch f3 {
			case 0:
				op = SUB
			case 5:
				op = SRA
			default:
				return bad(fmt.Sprintf("op funct7 0x20 funct3 %d", f3))
			}
		case 1:
			op = [8]Op{MUL, MULH, MULHSU, MULHU, DIV, DIVU, REM, REMU}[f3]
		default:
			return bad(fmt.Sprintf("op funct7 %#x", f7))
		}
		return Decoded{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2}, nil
	case opcSystem:
		switch w {
		case 0x00000073:
			return Decoded{Op: ECALL}, nil
		case 0x00100073:
			return Decoded{Op: EBREAK, Imm: 1}, nil
		default:
			return bad("unsupported system instruction")
		}
	default:
		return bad(fmt.Sprintf("unknown opcode %#02x", opc))
	}
}

// funct3/funct7 encodings per op, for Encode.
var encTable = map[Op]struct {
	opc uint32
	f3  uint32
	f7  uint32
}{
	LUI: {opcLui, 0, 0}, AUIPC: {opcAuipc, 0, 0},
	JAL: {opcJal, 0, 0}, JALR: {opcJalr, 0, 0},
	BEQ: {opcBranch, 0, 0}, BNE: {opcBranch, 1, 0}, BLT: {opcBranch, 4, 0},
	BGE: {opcBranch, 5, 0}, BLTU: {opcBranch, 6, 0}, BGEU: {opcBranch, 7, 0},
	LB: {opcLoad, 0, 0}, LH: {opcLoad, 1, 0}, LW: {opcLoad, 2, 0},
	LBU: {opcLoad, 4, 0}, LHU: {opcLoad, 5, 0},
	SB: {opcStore, 0, 0}, SH: {opcStore, 1, 0}, SW: {opcStore, 2, 0},
	ADDI: {opcOpImm, 0, 0}, SLTI: {opcOpImm, 2, 0}, SLTIU: {opcOpImm, 3, 0},
	XORI: {opcOpImm, 4, 0}, ORI: {opcOpImm, 6, 0}, ANDI: {opcOpImm, 7, 0},
	SLLI: {opcOpImm, 1, 0}, SRLI: {opcOpImm, 5, 0}, SRAI: {opcOpImm, 5, 0x20},
	ADD: {opcOp, 0, 0}, SUB: {opcOp, 0, 0x20}, SLL: {opcOp, 1, 0},
	SLT: {opcOp, 2, 0}, SLTU: {opcOp, 3, 0}, XOR: {opcOp, 4, 0},
	SRL: {opcOp, 5, 0}, SRA: {opcOp, 5, 0x20}, OR: {opcOp, 6, 0}, AND: {opcOp, 7, 0},
	MUL: {opcOp, 0, 1}, MULH: {opcOp, 1, 1}, MULHSU: {opcOp, 2, 1}, MULHU: {opcOp, 3, 1},
	DIV: {opcOp, 4, 1}, DIVU: {opcOp, 5, 1}, REM: {opcOp, 6, 1}, REMU: {opcOp, 7, 1},
	ECALL: {opcSystem, 0, 0}, EBREAK: {opcSystem, 0, 0},
}

// Encode encodes d into its 32-bit instruction word, validating
// register numbers and immediate ranges. Decode(Encode(d)) == d for
// every valid d (the golden round-trip test pins this per opcode).
func (d Decoded) Encode() (uint32, error) {
	e, ok := encTable[d.Op]
	if !ok {
		return 0, fmt.Errorf("rv32: encode: unknown op %v", d.Op)
	}
	if d.Rd > 31 || d.Rs1 > 31 || d.Rs2 > 31 {
		return 0, fmt.Errorf("rv32: encode %v: register out of range", d.Op)
	}
	rd, rs1, rs2 := uint32(d.Rd), uint32(d.Rs1), uint32(d.Rs2)
	imm := d.Imm
	switch d.Op {
	case ECALL:
		return 0x00000073, nil
	case EBREAK:
		return 0x00100073, nil
	case LUI, AUIPC:
		if imm&0xFFF != 0 {
			return 0, fmt.Errorf("rv32: encode %v: immediate %d has nonzero low bits", d.Op, imm)
		}
		return uint32(imm) | rd<<7 | e.opc, nil
	case JAL:
		if imm < -(1<<20) || imm >= 1<<20 || imm&1 != 0 {
			return 0, fmt.Errorf("rv32: encode jal: offset %d out of range", imm)
		}
		u := uint32(imm)
		w := (u>>20&1)<<31 | (u>>1&0x3FF)<<21 | (u>>11&1)<<20 | (u >> 12 & 0xFF << 12)
		return w | rd<<7 | e.opc, nil
	case SLLI, SRLI, SRAI:
		if imm < 0 || imm > 31 {
			return 0, fmt.Errorf("rv32: encode %v: shift amount %d out of range", d.Op, imm)
		}
		return e.f7<<25 | uint32(imm)<<20 | rs1<<15 | e.f3<<12 | rd<<7 | e.opc, nil
	}
	switch fmtOf(d.Op) {
	case fmtI:
		if imm < -2048 || imm > 2047 {
			return 0, fmt.Errorf("rv32: encode %v: immediate %d out of range", d.Op, imm)
		}
		return uint32(imm)&0xFFF<<20 | rs1<<15 | e.f3<<12 | rd<<7 | e.opc, nil
	case fmtS:
		if imm < -2048 || imm > 2047 {
			return 0, fmt.Errorf("rv32: encode %v: immediate %d out of range", d.Op, imm)
		}
		u := uint32(imm) & 0xFFF
		return (u>>5)<<25 | rs2<<20 | rs1<<15 | e.f3<<12 | (u&0x1F)<<7 | e.opc, nil
	case fmtB:
		if imm < -4096 || imm > 4095 || imm&1 != 0 {
			return 0, fmt.Errorf("rv32: encode %v: offset %d out of range", d.Op, imm)
		}
		u := uint32(imm)
		w := (u>>12&1)<<31 | (u>>5&0x3F)<<25 | (u>>1&0xF)<<8 | (u >> 11 & 1 << 7)
		return w | rs2<<20 | rs1<<15 | e.f3<<12 | e.opc, nil
	default: // fmtR
		return e.f7<<25 | rs2<<20 | rs1<<15 | e.f3<<12 | rd<<7 | e.opc, nil
	}
}

// immI extracts the sign-extended I-type immediate.
func immI(w uint32) int32 { return int32(w) >> 20 }

// immS extracts the sign-extended S-type immediate.
func immS(w uint32) int32 {
	return int32(w)>>25<<5 | int32(w>>7&0x1F)
}

// immB extracts the sign-extended B-type branch offset.
func immB(w uint32) int32 {
	u := (w>>31&1)<<12 | (w>>7&1)<<11 | (w>>25&0x3F)<<5 | (w >> 8 & 0xF << 1)
	return int32(u<<19) >> 19
}

// immJ extracts the sign-extended J-type jump offset.
func immJ(w uint32) int32 {
	u := (w>>31&1)<<20 | (w>>12&0xFF)<<12 | (w>>20&1)<<11 | (w >> 21 & 0x3FF << 1)
	return int32(u<<11) >> 11
}
