package rv32_test

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/isa/rv32"
)

// asmProgram assembles a program built by fill.
func asmProgram(t *testing.T, name string, init map[int]uint32, data []rv32.Segment, fill func(a *rv32.Asm)) *rv32.Program {
	t.Helper()
	a := rv32.NewAsm()
	fill(a)
	text, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	return &rv32.Program{Name: name, Text: text, Data: data, Init: init}
}

// TestExecuteArithmetic runs a straight-line program exercising the ALU,
// M-extension and RISC-V division edge semantics, then checks the
// architectural register results.
func TestExecuteArithmetic(t *testing.T) {
	p := asmProgram(t, "arith", nil, nil, func(a *rv32.Asm) {
		a.Li(rv32.T0, 7)
		a.Li(rv32.T1, -3)
		a.Mul(rv32.T2, rv32.T0, rv32.T1)  // t2 = -21
		a.Div(rv32.T3, rv32.T0, rv32.T1)  // t3 = -2 (truncated)
		a.Rem(rv32.T4, rv32.T0, rv32.T1)  // t4 = 1
		a.Div(rv32.T5, rv32.T0, rv32.X0)  // div by zero -> -1
		a.Rem(rv32.T6, rv32.T0, rv32.X0)  // rem by zero -> rs1
		a.Li(rv32.S2, 0x12345000-0x800)   // lui+addi path of Li
		a.Srai(rv32.S3, rv32.T1, 1)       // -3>>1 = -2 arithmetic
		a.Sltu(rv32.S4, rv32.X0, rv32.T0) // unsigned 0<7 = 1
		a.Ebreak()
	})
	m, err := rv32.Execute(p, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		reg  int
		want uint32
	}{
		{rv32.T2, uint32(0xFFFFFFEB)}, // -21
		{rv32.T3, uint32(0xFFFFFFFE)}, // -2
		{rv32.T4, 1},
		{rv32.T5, ^uint32(0)},
		{rv32.T6, 7},
		{rv32.S2, 0x12345000 - 0x800},
		{rv32.S3, uint32(0xFFFFFFFE)},
		{rv32.S4, 1},
	} {
		if got := m.Reg(tc.reg); got != tc.want {
			t.Errorf("x%d = %#x, want %#x", tc.reg, got, tc.want)
		}
	}
}

// TestExecuteControlAndMemory exercises labels, a loop, a call/return
// pair and byte/word memory traffic: sum the bytes 1..5 via a subroutine
// and store the result.
func TestExecuteControlAndMemory(t *testing.T) {
	data := []rv32.Segment{{Addr: rv32.DataBase, Data: []byte{1, 2, 3, 4, 5}}}
	p := asmProgram(t, "sum", map[int]uint32{rv32.SP: rv32.StackTop}, data, func(a *rv32.Asm) {
		a.Li(rv32.A0, int32(rv32.DataBase))
		a.Li(rv32.A1, 5)
		a.Jal(rv32.RA, "sum")
		a.Li(rv32.T0, int32(rv32.DataBase+0x100))
		a.Sw(rv32.A0, 0, rv32.T0)
		a.Ebreak()

		a.Label("sum") // a0 = sum of a1 bytes at a0
		a.Li(rv32.T1, 0)
		a.Label("loop")
		a.Beq(rv32.A1, rv32.X0, "done")
		a.Lbu(rv32.T2, 0, rv32.A0)
		a.Add(rv32.T1, rv32.T1, rv32.T2)
		a.Addi(rv32.A0, rv32.A0, 1)
		a.Addi(rv32.A1, rv32.A1, -1)
		a.J("loop")
		a.Label("done")
		a.Mv(rv32.A0, rv32.T1)
		a.Ret()
	})
	m, err := rv32.Execute(p, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.ReadWord(rv32.DataBase + 0x100); got != 15 {
		t.Fatalf("stored sum = %d, want 15", got)
	}
}

// TestExecuteFaults pins the executor's guard rails: null/low pointers,
// misalignment, ecall, runaway programs and stepping past halt all
// error without panicking.
func TestExecuteFaults(t *testing.T) {
	build := func(fill func(a *rv32.Asm)) *rv32.Program {
		return asmProgram(t, "fault", nil, nil, fill)
	}
	for _, tc := range []struct {
		name string
		p    *rv32.Program
		want string
	}{
		{"null-load", build(func(a *rv32.Asm) { a.Lw(rv32.T0, 0, rv32.X0); a.Ebreak() }), "below"},
		{"misaligned", build(func(a *rv32.Asm) {
			a.Li(rv32.T0, int32(rv32.DataBase+2))
			a.Lw(rv32.T1, 0, rv32.T0)
			a.Ebreak()
		}), "misaligned"},
		{"ecall", &rv32.Program{Name: "fault", Text: []uint32{0x00000073}}, "ecall"},
		{"runaway", build(func(a *rv32.Asm) { a.Label("x"); a.J("x") }), "did not halt"},
		{"pc-off-text", build(func(a *rv32.Asm) { a.Nop() }), "outside text"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := rv32.Execute(tc.p, 100)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Execute error = %v, want substring %q", err, tc.want)
			}
		})
	}

	if _, err := rv32.NewMachine(&rv32.Program{Name: "empty"}); err == nil {
		t.Error("NewMachine accepted an empty text")
	}
	if _, err := rv32.NewMachine(&rv32.Program{Name: "x0", Text: []uint32{0x00100073}, Init: map[int]uint32{0: 1}}); err == nil {
		t.Error("NewMachine accepted an x0 initialiser")
	}

	// Step after halt is an explicit error.
	m, err := rv32.Execute(&rv32.Program{Name: "halt", Text: []uint32{0x00100073}}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(); err == nil {
		t.Error("Step on a halted machine succeeded")
	}
}

// TestAsmErrors pins the assembler's accumulate-and-report contract.
func TestAsmErrors(t *testing.T) {
	a := rv32.NewAsm()
	a.Addi(rv32.T0, 99, 0) // bad register
	if _, err := a.Assemble(); err == nil {
		t.Error("Assemble accepted a bad register")
	}

	a = rv32.NewAsm()
	a.J("nowhere")
	if _, err := a.Assemble(); err == nil {
		t.Error("Assemble accepted an undefined label")
	}

	a = rv32.NewAsm()
	a.Label("dup")
	a.Nop()
	a.Label("dup")
	if _, err := a.Assemble(); err == nil {
		t.Error("Assemble accepted a duplicate label")
	}

	a = rv32.NewAsm()
	a.Label("here")
	if _, err := a.AddrOf("missing", rv32.TextBase); err == nil {
		t.Error("AddrOf resolved a missing label")
	}
	if got, err := a.AddrOf("here", rv32.TextBase); err != nil || got != rv32.TextBase {
		t.Errorf("AddrOf(here) = %#x, %v; want %#x", got, err, rv32.TextBase)
	}
}

// TestPageSwitching pins the cached-page fast path: stores of every width
// alternate between two pages (and a third touched only by loads), then
// loads of every width read them back in alternation, including aligned
// words and halfwords at the very end of a page and first-touch reads of
// zeroed memory. ReadWord then checks the bytes the narrow stores left,
// including a word that straddles into an untouched page.
func TestPageSwitching(t *testing.T) {
	const pa, pb, pc = 0x20000, 0x35000, 0x50000
	init := map[int]uint32{rv32.S0: pa, rv32.S1: pb, rv32.S2: pa + 0x800, rv32.S3: pb + 0x800, rv32.S6: pc}
	p := asmProgram(t, "pages", init, nil, func(a *rv32.Asm) {
		a.Lw(rv32.T0, 0, rv32.S0)  // first touch of page A: zero
		a.Lhu(rv32.T1, 4, rv32.S1) // first touch of page B: zero
		a.Li(rv32.T2, 0x12345678)
		a.Sb(rv32.T2, 1, rv32.S0)     // A+1 = 78
		a.Sh(rv32.T2, 2, rv32.S1)     // B+2.. = 78 56
		a.Sw(rv32.T2, 0x7FC, rv32.S2) // A+0xFFC.. = 78 56 34 12
		a.Li(rv32.T3, -1)
		a.Sb(rv32.T3, 3, rv32.S1)     // B+2.. = 78 FF
		a.Sh(rv32.T3, 0x7FE, rv32.S3) // B+0xFFE.. = FF FF
		a.Li(rv32.T4, 0x80)
		a.Sb(rv32.T4, 0, rv32.S0)     // A+0.. = 80 78
		a.Sw(rv32.T2, 8, rv32.S1)     // B+8.. = 78 56 34 12
		a.Lb(rv32.A0, 0, rv32.S0)     // 0x80 sign-extended
		a.Lbu(rv32.A1, 3, rv32.S1)    // 0xFF
		a.Lh(rv32.A2, 0, rv32.S0)     // 0x7880
		a.Lh(rv32.A3, 2, rv32.S1)     // 0xFF78 sign-extended
		a.Lhu(rv32.A4, 2, rv32.S1)    // 0xFF78
		a.Lw(rv32.A5, 0x7FC, rv32.S2) // last word of A
		a.Lw(rv32.A6, 0x7FC, rv32.S3) // last word of B: 00 00 FF FF
		a.Lw(rv32.A7, 4, rv32.S0)     // untouched word of a touched page
		a.Lw(rv32.S4, 8, rv32.S1)     // word stored to B
		a.Lw(rv32.S5, 0, rv32.S6)     // first touch of page C by a load
		a.Sw(rv32.T2, 4, rv32.S6)
		a.Lw(rv32.S7, 4, rv32.S6)      // and back
		a.Lbu(rv32.S8, 0x7FF, rv32.S3) // last byte of B
		a.Ebreak()
	})
	m, err := rv32.Execute(p, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		reg  int
		want uint32
	}{
		{rv32.T0, 0}, {rv32.T1, 0},
		{rv32.A0, 0xFFFFFF80}, {rv32.A1, 0xFF}, {rv32.A2, 0x7880},
		{rv32.A3, 0xFFFFFF78}, {rv32.A4, 0xFF78},
		{rv32.A5, 0x12345678}, {rv32.A6, 0xFFFF0000}, {rv32.A7, 0},
		{rv32.S4, 0x12345678}, {rv32.S5, 0}, {rv32.S7, 0x12345678}, {rv32.S8, 0xFF},
	} {
		if got := m.Reg(tc.reg); got != tc.want {
			t.Errorf("x%d = %#x, want %#x", tc.reg, got, tc.want)
		}
	}
	for _, tc := range []struct{ addr, want uint32 }{
		{pa, 0x00007880},
		{pb, 0xFF780000},
		{pb + 0xFFC, 0xFFFF0000},
		{pa + 0xFFE, 0x00001234}, // straddles into the untouched next page
		{pc + 4, 0x12345678},
	} {
		if got := m.ReadWord(tc.addr); got != tc.want {
			t.Errorf("ReadWord(%#x) = %#x, want %#x", tc.addr, got, tc.want)
		}
	}
}

// TestUndecodableWordIsLazy: text is decoded once up front, but a word
// that does not decode faults only when executed — with the same error
// a per-step decode reports.
func TestUndecodableWordIsLazy(t *testing.T) {
	jump, err := rv32.Decoded{Op: rv32.JAL, Imm: 8}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	const bad, ebreak = 0xFFFFFFFF, 0x00100073
	skipped := &rv32.Program{Name: "skip", Text: []uint32{jump, bad, ebreak}}
	if _, err := rv32.Execute(skipped, 10); err != nil {
		t.Fatalf("unreached undecodable word: %v", err)
	}
	st, err := rv32.NewStreamer(skipped)
	if err != nil {
		t.Fatal(err)
	}
	insts, err := st.Emit(nil)
	if err != nil || len(insts) != 1 || !st.Halted() {
		t.Fatalf("Emit = %d insts, %v (halted %v); want the jump alone", len(insts), err, st.Halted())
	}
	if in := st.Image().At(1); in.Op != isa.Nop {
		t.Errorf("image of the undecodable word = %+v, want a Nop", in)
	}

	_, decodeErr := rv32.Decode(bad)
	want := fmt.Sprintf("rv32: %q pc=%#x: %v", "reach", rv32.TextBase+4, decodeErr)
	reached := &rv32.Program{Name: "reach", Text: []uint32{0x00000013 /* nop */, bad, ebreak}}
	if _, err := rv32.Execute(reached, 10); err == nil || err.Error() != want {
		t.Fatalf("Execute error = %v, want %q", err, want)
	}
	if st, err = rv32.NewStreamer(reached); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Emit(nil); err == nil || err.Error() != want {
		t.Fatalf("Emit error = %v, want %q", err, want)
	}
}

// TestEmitAllocatesNothing: once a program's pages are touched, Emit into
// a buffer with room for a chunk runs without a single allocation.
func TestEmitAllocatesNothing(t *testing.T) {
	init := map[int]uint32{rv32.S0: rv32.DataBase, rv32.S1: rv32.DataBase + 0x5000}
	p := asmProgram(t, "loop", init, nil, func(a *rv32.Asm) {
		a.Li(rv32.T0, 1_000_000)
		a.Label("loop")
		a.Lw(rv32.T1, 0, rv32.S0)
		a.Addi(rv32.T1, rv32.T1, 1)
		a.Sw(rv32.T1, 0, rv32.S0)
		a.Sb(rv32.T1, 0, rv32.S1)
		a.Jal(rv32.RA, "leaf")
		a.Addi(rv32.T0, rv32.T0, -1)
		a.Bne(rv32.T0, rv32.X0, "loop")
		a.Ebreak()
		a.Label("leaf")
		a.Ret()
	})
	st, err := rv32.NewStreamer(p)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := st.Emit(nil) // touches both pages, sizes buf
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if buf, err = st.Emit(buf[:0]); err != nil || st.Halted() {
			t.Fatalf("Emit: %v (halted %v)", err, st.Halted())
		}
	})
	if allocs != 0 {
		t.Errorf("Emit allocated %.1f times per call, want 0", allocs)
	}
}

// FuzzExecute runs arbitrary words as a program's text (with a halting
// EBREAK appended) under a small step cap. The executor must never
// panic, and must be deterministic: two runs return the same state or
// the same error. Text past 64 words is dropped, which keeps the
// fuzzer's minimisation of long inputs cheap.
func FuzzExecute(f *testing.F) {
	var golden []byte
	for _, tc := range goldenEncodings {
		golden = binary.LittleEndian.AppendUint32(golden, tc.word)
	}
	f.Add(golden)
	f.Add([]byte{})
	// addi sp, sp, -16; sw ra, 12(sp); lw a0, 12(sp); bne a0, x0, -12
	f.Add([]byte{0x13, 0x01, 0x01, 0xFF, 0x23, 0x26, 0x11, 0x00, 0x03, 0x25, 0xC1, 0x00, 0xE3, 0x1A, 0x05, 0xFE})
	f.Fuzz(func(t *testing.T, b []byte) {
		const maxWords = 64
		text := make([]uint32, 0, maxWords+1)
		for ; len(b) >= 4 && len(text) < maxWords; b = b[4:] {
			text = append(text, binary.LittleEndian.Uint32(b))
		}
		p := &rv32.Program{Name: "fuzz", Text: append(text, 0x00100073), Init: map[int]uint32{rv32.SP: rv32.StackTop}}
		run := func() string {
			m, err := rv32.Execute(p, 256)
			if err != nil {
				return "error: " + err.Error()
			}
			if m.Reg(0) != 0 {
				t.Fatalf("x0 = %#x after execution", m.Reg(0))
			}
			s := fmt.Sprintf("steps=%d", m.Steps())
			for r := 1; r < 32; r++ {
				s += fmt.Sprintf(" %x", m.Reg(r))
			}
			return s
		}
		if first, second := run(), run(); first != second {
			t.Fatalf("nondeterministic execution:\n%s\n%s", first, second)
		}
	})
}
