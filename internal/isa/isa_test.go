package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestRegConstructors(t *testing.T) {
	if r := IntReg(0); r != 0 || r.IsFP() {
		t.Errorf("IntReg(0) = %v, IsFP=%v", r, r.IsFP())
	}
	if r := IntReg(NumIntRegs - 1); !r.Valid() || r.IsFP() {
		t.Errorf("last int reg invalid: %v", r)
	}
	if r := FPReg(0); !r.IsFP() || !r.Valid() {
		t.Errorf("FPReg(0) = %v not FP", r)
	}
	if r := FPReg(NumFPRegs - 1); int(r) != NumLogical-1 {
		t.Errorf("last fp reg = %d, want %d", r, NumLogical-1)
	}
}

func TestRegConstructorPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { IntReg(-1) },
		func() { IntReg(NumIntRegs) },
		func() { FPReg(-1) },
		func() { FPReg(NumFPRegs) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for out-of-range register")
				}
			}()
			fn()
		}()
	}
}

func TestRegString(t *testing.T) {
	cases := map[Reg]string{
		RegNone:   "-",
		IntReg(3): "r3",
		FPReg(7):  "f7",
	}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", r, got, want)
		}
	}
}

func TestRegValidity(t *testing.T) {
	if RegNone.Valid() {
		t.Error("RegNone must not be valid")
	}
	if Reg(NumLogical).Valid() {
		t.Error("register beyond the name space must not be valid")
	}
	// Property: every constructed register is valid.
	if err := quick.Check(func(i uint8) bool {
		return IntReg(int(i)%NumIntRegs).Valid() && FPReg(int(i)%NumFPRegs).Valid()
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestOpProperties(t *testing.T) {
	cases := []struct {
		op      Op
		mem     bool
		hasDest bool
	}{
		{Nop, false, false},
		{IntAlu, false, true},
		{IntMul, false, true},
		{IntDiv, false, true},
		{FPAlu, false, true},
		{Load, true, true},
		{Store, true, false},
		{Branch, false, false},
	}
	for _, c := range cases {
		if got := c.op.IsMem(); got != c.mem {
			t.Errorf("%v.IsMem() = %v, want %v", c.op, got, c.mem)
		}
		if got := c.op.HasDest(); got != c.hasDest {
			t.Errorf("%v.HasDest() = %v, want %v", c.op, got, c.hasDest)
		}
	}
}

func TestOpString(t *testing.T) {
	for op := Op(0); int(op) < NumOps; op++ {
		if s := op.String(); s == "" || strings.HasPrefix(s, "op(") {
			t.Errorf("missing name for op %d", op)
		}
	}
	if s := Op(200).String(); !strings.HasPrefix(s, "op(") {
		t.Errorf("unknown op should render numerically, got %q", s)
	}
}

func TestInstValidate(t *testing.T) {
	valid := []Inst{
		{Op: IntAlu, Dest: IntReg(1), Src1: IntReg(2), Src2: RegNone},
		{Op: Load, Dest: FPReg(0), Src1: IntReg(0), Src2: RegNone, Addr: 0x1000},
		{Op: Store, Dest: RegNone, Src1: IntReg(0), Src2: FPReg(1), Addr: 0x1000},
		{Op: Branch, Dest: RegNone, Src1: IntReg(0), Src2: RegNone, PC: 4},
		{Op: Nop, Dest: RegNone, Src1: RegNone, Src2: RegNone},
	}
	for _, in := range valid {
		if err := in.Validate(); err != nil {
			t.Errorf("%v: unexpected error %v", in, err)
		}
	}
	invalid := []Inst{
		{Op: Op(99)},
		{Op: IntAlu, Dest: RegNone},                          // missing dest
		{Op: Branch, Dest: IntReg(0)},                        // branch with dest
		{Op: Load, Dest: FPReg(0), Src1: IntReg(0), Addr: 0}, // zero address
		{Op: Store, Dest: RegNone, Src1: IntReg(0), Src2: RegNone, Addr: 8}, // no data
		{Op: IntAlu, Dest: IntReg(0), Src1: Reg(99)},                        // bad source
	}
	for _, in := range invalid {
		if err := in.Validate(); err == nil {
			t.Errorf("%v: expected validation error", in)
		}
	}
}

func TestInstString(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: Load, Dest: FPReg(3), Src1: IntReg(1), Addr: 0x10040}, "load f3 <- [0x10040] (r1)"},
		{Inst{Op: Nop}, "nop"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("got %q, want %q", got, c.want)
		}
	}
	br := Inst{Op: Branch, Src1: IntReg(0), Src2: RegNone, PC: 0x40, Taken: true}
	if !strings.Contains(br.String(), " t") {
		t.Errorf("taken branch should render outcome: %q", br.String())
	}
}
