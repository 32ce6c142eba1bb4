package trace

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/isa/programs"
	"repro/internal/isa/rv32"
)

// InstStream produces a workload's dynamic instruction stream lazily,
// in segments, instead of as one materialised slice. Synthetic kernels
// stream by construction (their generators emit an infinite sequence of
// which Materialise keeps a prefix), and programs stream through the
// incremental RV32 executor, so only the instructions near the cursor
// ever exist in memory. This is what lifts MaxRecipeInsts for sampled
// runs: a sampled point's budget is bounded by MaxStreamInsts, not by
// what fits in one allocation.
//
// Prefix contract: for any recipe, the streamed sequence's first N
// elements are Recipe{..., N}.Materialise()'s instructions, because
// Materialise drains the same stream.
type InstStream struct {
	name string
	code StaticCode
	src  streamSource // nil once exhausted
	buf  []isa.Inst
	off  int   // consumed prefix of buf
	base int64 // absolute stream position of buf[off]
	// borrowed marks buf as a view of a materialised trace's storage:
	// never compact (compaction writes into the shared array).
	borrowed bool
}

// streamSource appends the next segment of the stream to dst. Returning
// dst unchanged signals exhaustion.
type streamSource interface {
	emit(dst []isa.Inst) ([]isa.Inst, error)
}

// Name returns the workload name (matches the materialised trace's).
func (s *InstStream) Name() string { return s.name }

// Code returns the static code image for program streams, nil otherwise.
func (s *InstStream) Code() StaticCode { return s.code }

// Pos returns the absolute stream position of the cursor: the number of
// instructions consumed by Skip so far.
func (s *InstStream) Pos() int64 { return s.base }

// Peek returns the next n instructions without consuming them (fewer
// only at end of stream). The returned slice aliases the stream's
// buffer and is valid until the next Peek/Skip/Window call.
func (s *InstStream) Peek(n int) ([]isa.Inst, error) {
	if s.off > 0 && !s.borrowed && s.off >= len(s.buf)-s.off {
		s.buf = s.buf[:copy(s.buf, s.buf[s.off:])]
		s.off = 0
	}
	for len(s.buf)-s.off < n && s.src != nil {
		if s.base+int64(len(s.buf)-s.off) > MaxStreamInsts {
			return nil, fmt.Errorf("trace: stream %s exceeds %d instructions", s.name, MaxStreamInsts)
		}
		before := len(s.buf)
		buf, err := s.src.emit(s.buf)
		if err != nil {
			return nil, err
		}
		s.buf = buf
		if len(s.buf) == before {
			s.src = nil
		}
	}
	if avail := len(s.buf) - s.off; n > avail {
		n = avail
	}
	return s.buf[s.off : s.off+n], nil
}

// Skip consumes n instructions; n must not exceed what Peek has shown
// to be available.
func (s *InstStream) Skip(n int) {
	if n < 0 || n > len(s.buf)-s.off {
		panic(fmt.Sprintf("trace: stream %s: skip %d beyond buffered %d", s.name, n, len(s.buf)-s.off))
	}
	s.off += n
	s.base += int64(n)
}

// Window returns the next n instructions (fewer at end of stream) as a
// Trace without consuming them: the detailed-simulation view of one
// sampling window. The window trace carries the stream's name and
// static code, so window runs exercise the same BTB/wrong-path
// machinery as full runs. It copies nothing: the trace reads the
// stream's own buffer, so, like a Peek, it is valid only until the
// stream next moves (Peek, Skip or Window). A sampled run finishes
// with its window CPU before it skips past the window.
func (s *InstStream) Window(n int) (*Trace, error) {
	w, err := s.Peek(n)
	if err != nil {
		return nil, err
	}
	return &Trace{name: s.name, insts: w[:len(w):len(w)], code: s.code}, nil
}

// drain consumes up to n instructions (fewer if the stream ends first)
// into a trace with the stream's name and code. size pre-sizes its
// storage: the exact length when it is known, so a long trace is never
// copied to grow; 0 for programs, whose trace grows by the runtime's
// rule, so no spare chunk stays resident in a cached trace.
func (s *InstStream) drain(n, size int) (*Trace, error) {
	insts := make([]isa.Inst, 0, size)
	for len(insts) < n {
		next, err := s.Peek(min(n-len(insts), 8192))
		if err != nil {
			return nil, err
		}
		if len(next) == 0 {
			break
		}
		insts = append(insts, next...)
		s.Skip(len(next))
	}
	return &Trace{name: s.name, insts: insts, code: s.code}, nil
}

// OpenStream returns a stream over an already-materialised trace (a
// borrowed, zero-copy view; the trace must not be mutated, which Trace
// never is after construction).
func (t *Trace) OpenStream() *InstStream {
	return &InstStream{name: t.name, code: t.code, buf: t.insts, borrowed: true}
}

// OpenStream opens the recipe's dynamic stream at position zero.
// Synthetic streams are unbounded (the run's instruction budget decides
// how far to read); program streams end when the program halts.
func (r Recipe) OpenStream() (*InstStream, error) {
	if err := r.ValidateStreamed(); err != nil {
		return nil, err
	}
	if r.Kernel == KernelProgram {
		return r.openProgramStream()
	}
	round, err := synthRound(r)
	if err != nil {
		return nil, err
	}
	return synthStream(r.WorkloadName(), round), nil
}

// synthStream opens the unbounded stream that replays round.
func synthStream(name string, round []iterSource) *InstStream {
	return &InstStream{name: name, src: &synthSource{round: round}}
}

// synthRound builds the kernel instances a synthetic recipe's stream
// replays: the one place each kernel's register window, address region,
// PC base and PRNG seed are chosen.
func synthRound(r Recipe) ([]iterSource, error) {
	switch r.Kernel {
	case KernelStream:
		return []iterSource{newStreamKernel(fullWindow, 0, 0x1000, 1, newPRNG(1))}, nil
	case KernelStrided:
		return []iterSource{newStreamKernel(fullWindow, 0, 0x1000, r.Stride, newPRNG(1))}, nil
	case KernelStencil:
		return []iterSource{newStencilKernel(fullWindow, 1, 0x2000)}, nil
	case KernelReduction:
		return []iterSource{newReductionKernel(fullWindow, 2, 0x3000)}, nil
	case KernelBlocked:
		return []iterSource{newBlockedKernel(fullWindow, 3, 0x4000)}, nil
	case KernelPointerChase:
		return []iterSource{newChaseKernel(fullWindow, 4, 0x5000, newPRNG(7))}, nil
	case KernelFPMix:
		return mixRound(r.Seed, DefaultWeights())
	}
	return nil, fmt.Errorf("trace: recipe %s cannot stream", r.Kernel)
}

// synthSource emits one full scheduling round per call; a materialised
// trace keeps a prefix of that sequence, cut mid-round at its length.
type synthSource struct {
	round []iterSource
}

func (s *synthSource) emit(dst []isa.Inst) ([]isa.Inst, error) {
	b := builder{insts: dst}
	for _, k := range s.round {
		k.emitIter(&b)
	}
	return b.insts, nil
}

// openProgramStream wires the incremental RV32 executor to the stream.
func (r Recipe) openProgramStream() (*InstStream, error) {
	spec, ok := programs.Lookup(r.Program)
	if !ok {
		return nil, fmt.Errorf("trace: recipe: unknown program %q", r.Program)
	}
	p, err := spec.Build(r.Input, r.Seed)
	if err != nil {
		return nil, fmt.Errorf("trace: recipe %s: %w", r, err)
	}
	st, err := rv32.NewStreamer(p)
	if err != nil {
		return nil, fmt.Errorf("trace: recipe %s: %w", r, err)
	}
	return &InstStream{name: r.Program, code: st.Image(), src: &programSource{st: st}}, nil
}

type programSource struct {
	st *rv32.Streamer
}

func (p *programSource) emit(dst []isa.Inst) ([]isa.Inst, error) {
	if p.st.Halted() {
		return dst, nil
	}
	return p.st.Emit(dst)
}
