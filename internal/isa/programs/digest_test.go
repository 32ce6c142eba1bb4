package programs_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"repro/internal/isa"
	"repro/internal/isa/programs"
	"repro/internal/isa/rv32"
	"repro/internal/trace"
)

// pinnedStreams are SHA-256 digests of every program's full mapped
// dynamic stream and of its static wrong-path image, at a fixed input and
// seed. They were computed with the decode-every-step executor that
// preceded the predecoded one, so they are an oracle independent of the
// executor's fast paths: any change to what the functional tier emits —
// an operand, a PC, an effective address, a branch outcome or target —
// changes a digest.
var pinnedStreams = []struct {
	name   string
	input  int
	stream string
	image  string
}{
	{"chase", 28571,
		"ca3ee67102ac3ae8090febcc7bead3a7464a9b74292a5a1d22ebf18a16a8869c",
		"0afea552e000d7d90aec8b1358f83772ff710cbb2b723de5096aea669732d824"},
	{"dhry", 1666,
		"2a2ca42bb8e8a0ddcbf590648178fa9c5e163d64a4b655daff1b377d2ad6c4ab",
		"80998eb7551c25b94ad9de34eec481420ac48d9ad31303a91ecd5082add54663"},
	{"hashjoin", 6250,
		"9b66c05179f9d0737c9f6bad5e54257b81ab602acf98d164e52d73bb2408fcf5",
		"823111d5330c5b43eb0fca880fb1d04ea1cf6edf9de76ebbcbeb0f389f6a16cc"},
	{"isort", 365,
		"4ef44bca2acf32adf68ffbdba2e5ad78238d60ca20d8c6d18089596e6a53c5cf",
		"3bbefe17d75b3e4ef0b3395c6df9270a8141744675cb73cb30487a9230260861"},
	{"memcpy", 114285,
		"cea598f595b794a0556f325a8ed509c93da21d322ae260bc73693fee67a14870",
		"7edc149fe4529e7fdd469b105d62d594b513460f8f317fdb0af2c8ae7943c0c4"},
}

const pinnedSeed = 42

// hashInst folds every field of in into h in a fixed binary layout.
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

// TestProgramStreamsPinned drains every registered program through the
// Streamer and materialises its trace recipe, and checks both against
// the pinned digests, together with the static image.
func TestProgramStreamsPinned(t *testing.T) {
	if got, want := len(pinnedStreams), len(programs.Names()); got != want {
		t.Fatalf("%d pinned programs, registry has %d; pin every program", got, want)
	}
	for _, pin := range pinnedStreams {
		t.Run(pin.name, func(t *testing.T) {
			spec, ok := programs.Lookup(pin.name)
			if !ok {
				t.Fatalf("program %q not registered", pin.name)
			}
			p, err := spec.Build(pin.input, pinnedSeed)
			if err != nil {
				t.Fatal(err)
			}

			st, err := rv32.NewStreamer(p)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			var buf []isa.Inst
			n := 0
			for !st.Halted() {
				if buf, err = st.Emit(buf[:0]); err != nil {
					t.Fatal(err)
				}
				for _, in := range buf {
					hashInst(h, in)
				}
				n += len(buf)
			}
			streamed := hex.EncodeToString(h.Sum(nil))

			r := trace.Recipe{Kernel: trace.KernelProgram, Program: pin.name, Input: pin.input, Seed: pinnedSeed}
			tr, err := r.Materialise()
			if err != nil {
				t.Fatal(err)
			}
			h.Reset()
			for i := range tr.Len() {
				hashInst(h, tr.At(i))
			}
			if built := hex.EncodeToString(h.Sum(nil)); built != streamed {
				t.Errorf("materialised digest %s (%d insts) != Streamer digest %s (%d insts)", built, tr.Len(), streamed, n)
			}
			if streamed != pin.stream {
				t.Errorf("stream digest %s (%d insts), pinned %s", streamed, n, pin.stream)
			}

			h.Reset()
			img := st.Image()
			for i := range img.Len() {
				hashInst(h, img.At(i))
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != pin.image {
				t.Errorf("image digest %s (%d words), pinned %s", got, img.Len(), pin.image)
			}
		})
	}
}
