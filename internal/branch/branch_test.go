package branch

import (
	"testing"
)

func TestGshareLearnsAlwaysTaken(t *testing.T) {
	g := NewGshare(10)
	pc := uint64(0x400)
	for i := 0; i < 100; i++ {
		g.Update(pc, true)
	}
	if !g.Predict(pc) {
		t.Error("always-taken branch should predict taken")
	}
	s := g.Stats()
	if s.Predictions != 100 {
		t.Fatalf("predictions = %d", s.Predictions)
	}
	// Counters start weakly taken, so an always-taken stream should
	// mispredict almost never.
	if s.Mispredicts > 2 {
		t.Errorf("too many mispredicts on a monotone stream: %d", s.Mispredicts)
	}
}

func TestGshareLearnsAlternating(t *testing.T) {
	g := NewGshare(12)
	pc := uint64(0x80)
	// Alternating pattern: with global history, gshare separates the
	// two contexts and should converge to near-perfect prediction.
	miss := 0
	for i := 0; i < 2000; i++ {
		taken := i%2 == 0
		if g.Predict(pc) != taken {
			miss++
		}
		g.Update(pc, taken)
	}
	// Allow generous warmup; steady state must be learned.
	if miss > 200 {
		t.Errorf("alternating pattern not learned: %d misses of 2000", miss)
	}
}

func TestGshareHistorySnapshotRestore(t *testing.T) {
	g := NewGshare(10)
	for i := 0; i < 17; i++ {
		g.Update(uint64(i*4), i%3 == 0)
	}
	snap := g.HistorySnapshot()
	before := g.Predict(0x1234)
	g.Update(0x1234, true)
	g.Update(0x1238, false)
	if g.HistorySnapshot() == snap {
		t.Fatal("history should have advanced")
	}
	g.RestoreHistory(snap)
	if g.HistorySnapshot() != snap {
		t.Fatal("history not restored")
	}
	// Prediction at the restored history indexes the same counter
	// (which may have been trained meanwhile, but the index matches).
	_ = before
}

func TestGshareDistinguishesBranches(t *testing.T) {
	g := NewGshare(14)
	// Two branches with opposite biases at a fixed history.
	for i := 0; i < 500; i++ {
		g.RestoreHistory(0)
		g.Update(0x1000, true)
		g.RestoreHistory(0)
		g.Update(0x2000, false)
	}
	g.RestoreHistory(0)
	if !g.Predict(0x1000) {
		t.Error("biased-taken branch mispredicted")
	}
	g.RestoreHistory(0)
	if g.Predict(0x2000) {
		t.Error("biased-not-taken branch mispredicted")
	}
}

func TestGshareBitsPanics(t *testing.T) {
	for _, bits := range []int{0, 31} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bits=%d: expected panic", bits)
				}
			}()
			NewGshare(bits)
		}()
	}
}

func TestPerfect(t *testing.T) {
	p := NewPerfect()
	p.Update(0x40, true)
	p.Update(0x40, false)
	s := p.Stats()
	if s.Predictions != 2 || s.Mispredicts != 0 {
		t.Fatalf("perfect predictor stats: %+v", s)
	}
	if s.MispredictRate() != 0 {
		t.Error("perfect predictor never mispredicts")
	}
	p.RestoreHistory(p.HistorySnapshot()) // no-ops, must not panic
}

func TestMispredictRateZeroOnUnused(t *testing.T) {
	var s Stats
	if s.MispredictRate() != 0 {
		t.Error("unused predictor must report rate 0")
	}
}

// The interface must be satisfied by both predictors.
var (
	_ Predictor = (*Gshare)(nil)
	_ Predictor = (*Perfect)(nil)
)

func TestConfidenceStartsSaturated(t *testing.T) {
	e := NewConfidence(4, 15)
	if got := e.Value(0x40); got != 15 {
		t.Fatalf("cold counter = %d, want the ceiling (confident until proven otherwise)", got)
	}
}

func TestConfidenceResetsOnMispredictAndRebuilds(t *testing.T) {
	e := NewConfidence(4, 15)
	const pc = 0x80
	e.Update(pc, false)
	if got := e.Value(pc); got != 0 {
		t.Fatalf("after a misprediction counter = %d, want 0 (resetting scheme)", got)
	}
	for i := 1; i <= 20; i++ {
		e.Update(pc, true)
		want := uint8(i)
		if i > 15 {
			want = 15 // saturates at the ceiling
		}
		if got := e.Value(pc); got != want {
			t.Fatalf("after %d correct predictions counter = %d, want %d", i, got, want)
		}
	}
}

func TestConfidenceIndexesPerBranch(t *testing.T) {
	e := NewConfidence(4, 15)
	e.Update(0x100, false)
	if e.Value(0x104) != 15 {
		t.Error("a neighbouring branch must keep its own counter")
	}
	// PCs 2^(bits+2) apart alias to the same counter (the low two bits
	// are dropped: instructions are 4-byte aligned).
	if e.Value(0x100+16*4) != 0 {
		t.Error("aliasing PCs must share a counter")
	}
}

func TestConfidenceRejectsBadParameters(t *testing.T) {
	for _, f := range []func(){
		func() { NewConfidence(0, 15) },
		func() { NewConfidence(31, 15) },
		func() { NewConfidence(4, 0) },
		func() { NewConfidence(4, 256) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected a panic for invalid parameters")
				}
			}()
			f()
		}()
	}
}
