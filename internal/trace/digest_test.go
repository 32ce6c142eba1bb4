package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"repro/internal/isa"
)

// pinN is odd, so every generator's last emission round is cut.
const pinN = 100_003

// pinnedSynthetic pins every synthetic generator, plus one custom-weight
// Mix, at pinN instructions: the trace name, a SHA-256 of the
// instructions, and the name of the recipe's stream ("" for the custom
// mix, which has no recipe). The digests were computed with the
// materialising generators that predate draining the recipe stream, so
// they are an oracle independent of how a trace is built: any change to
// a kernel's registers, addresses, PCs or PRNG draws changes one.
var pinnedSynthetic = []struct {
	gen    func() *Trace
	name   string
	stream string
	digest string
}{
	{func() *Trace { return Stream(pinN) }, "stream", "stream",
		"fd784aeedd7f1411436794810ffcf493a1d65ac4ba9e470f159dcba46a19ee91"},
	{func() *Trace { return StridedStream(pinN, 8) }, "stream-strided", "strided",
		"823acbaaee0ec5e7073d8222895ad53b056788760d6a2bd835461274388af3b2"},
	{func() *Trace { return Stencil(pinN) }, "stencil", "stencil",
		"608baf4c56af0677f2c83609b4f845a0a05fbae8ace4ce0817d284b0088780c9"},
	{func() *Trace { return Reduction(pinN) }, "reduction", "reduction",
		"d71876341b50069afd2198e9e17e6ba2de0663683c9f119961257d15df9b630c"},
	{func() *Trace { return Blocked(pinN) }, "blocked", "blocked",
		"184cfec8600b84c4b604d4a981b2736c5eb3a4ee92c37ff513401009febbbda5"},
	{func() *Trace { return PointerChase(pinN) }, "pointerchase", "pointerchase",
		"04bb9d045aa56065cd2fb990ab6892dc07cfa70bc00db66520a6f04e28220866"},
	{func() *Trace { return FPMix(pinN, 42) }, "fpmix", "fpmix",
		"c340a858b4d59ca231410c4fc64c58a4e43dc893d1878a155a0846ee7ee43c37"},
	{func() *Trace { return Mix(pinN, 3, MixWeights{Strided: 3, CondSlow: 30, Blocked: 1}) }, "fpmix", "",
		"7873d79c11d16591bc9fadd320f97d83b2f1eb035698f5bb9d88bc860248713f"},
}

// hashInst folds every field of in into h in a fixed binary layout (the
// layout of the program stream digests).
func hashInst(h hash.Hash, in isa.Inst) {
	var b [29]byte
	b[0] = byte(in.Op)
	b[1] = byte(in.Dest)
	b[2] = byte(in.Src1)
	b[3] = byte(in.Src2)
	binary.LittleEndian.PutUint64(b[4:], in.PC)
	binary.LittleEndian.PutUint64(b[12:], in.Addr)
	if in.Taken {
		b[20] = 1
	}
	binary.LittleEndian.PutUint64(b[21:], in.Target)
	h.Write(b[:])
}

func digest(insts []isa.Inst) string {
	h := sha256.New()
	for _, in := range insts {
		hashInst(h, in)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSyntheticStreamsPinned checks every pinned generator, and the first
// pinN instructions of its recipe's stream, against the pins.
func TestSyntheticStreamsPinned(t *testing.T) {
	for _, pin := range pinnedSynthetic {
		tr := pin.gen()
		if tr.Name() != pin.name || tr.Len() != pinN {
			t.Errorf("trace %q with %d insts, want %q with %d", tr.Name(), tr.Len(), pin.name, pinN)
			continue
		}
		if got := digest(tr.insts); got != pin.digest {
			t.Errorf("%s: digest %s, pinned %s", pin.name, got, pin.digest)
		}
		r, ok := tr.Recipe()
		if !ok {
			if pin.stream != "" {
				t.Errorf("%s: no recipe, want one streaming as %q", pin.name, pin.stream)
			}
			continue
		}
		st, err := r.OpenStream()
		if err != nil {
			t.Fatalf("%s: %v", r, err)
		}
		if st.Name() != pin.stream {
			t.Errorf("%s: stream %q, want %q", r, st.Name(), pin.stream)
		}
		insts, err := st.Peek(pinN)
		if err != nil {
			t.Fatalf("%s: %v", r, err)
		}
		if got := digest(insts); got != pin.digest {
			t.Errorf("%s: stream digest %s, pinned %s", r, got, pin.digest)
		}
	}
}
