package rv32

import (
	"fmt"
	"slices"

	"repro/internal/isa"
)

// Streamer functionally executes a program chunk by chunk, emitting its
// mapped pipeline stream without ever materialising it whole. It is the
// program-side producer of the trace layer's segment streams: sampled
// runs read it window by window, and materialised program traces drain
// it to the halt.
type Streamer struct {
	m       *Machine
	static  []isa.Inst // the text through mapStatic, indexed like it
	emitted int
}

// NewStreamer prepares p for incremental execution.
func NewStreamer(p *Program) (*Streamer, error) {
	m, err := NewMachine(p)
	if err != nil {
		return nil, err
	}
	return &Streamer{m: m, static: mapText(m.text)}, nil
}

// Halted reports whether the program has run to completion; Emit
// appends nothing once it has.
func (s *Streamer) Halted() bool { return s.m.halted }

// Image returns the static image of the program's text, derived from
// the machine's predecoded table.
func (s *Streamer) Image() *Image { return newImage(s.static) }

// Emit appends the mapped pipeline instructions of up to one execution
// chunk (a few thousand retired RV32 instructions) to dst and returns
// the extended slice. Each retired instruction is its word's static
// form completed with the executed address or outcome; JAL/JALR with a
// link register become two micro-ops at one PC, the link write first.
//
// dst grows at most once per call, so once the program's pages are
// touched an Emit into a buffer with room for a chunk allocates
// nothing.
func (s *Streamer) Emit(dst []isa.Inst) ([]isa.Inst, error) {
	const chunk = 4096
	dst = slices.Grow(dst, chunk+1) // one step appends at most two
	before := len(dst)
	var r Retired
	for len(dst)-before < chunk && !s.m.halted {
		if err := s.m.step(&r); err != nil {
			return dst, err
		}
		st := &s.static[(r.PC-TextBase)/4]
		switch st.Op {
		case isa.Branch:
			if r.D.Rd != 0 { // a jump that writes a link register
				dst = append(dst, isa.Inst{Op: isa.IntAlu, Dest: reg(r.D.Rd), Src1: isa.RegNone, Src2: isa.RegNone, PC: st.PC})
			}
		case isa.Nop:
			switch r.D.Op {
			case EBREAK:
				continue // the halt itself does not enter the pipeline
			case LB, LH, LW, LBU, LHU:
				return dst, fmt.Errorf("rv32: %q pc=%#x: load into x0 cannot be mapped", s.m.prog.Name, r.PC)
			}
		}
		// Fill the dynamic fields in place: patching a copy first would
		// make the append reload it across store-forwarding stalls.
		dst = append(dst, *st)
		switch in := &dst[len(dst)-1]; in.Op {
		case isa.Load, isa.Store:
			in.Addr = uint64(r.Addr)
		case isa.Branch:
			in.Taken, in.Target = r.Taken, uint64(r.Target)
		}
	}
	s.emitted += len(dst) - before
	if s.m.halted && s.emitted == 0 {
		return dst, fmt.Errorf("rv32: %q produced an empty stream", s.m.prog.Name)
	}
	return dst, nil
}
