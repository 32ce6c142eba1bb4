// Package branch implements the branch predictors of the simulated
// processor: the 16K-history gshare predictor from Table 1 of the paper,
// plus the perfect predictor used for ablation studies.
//
// Predictors are speculative state machines: Predict is called at fetch
// with the current speculative history, and Update trains them with the
// true outcome, which the trace carries. The core fetches wrong-path
// instructions after a misprediction (core's nextWrongPathInst), but
// wrong-path branches never reach the predictor, so speculative history
// equals committed history except across rollbacks, which restore it
// via HistorySnapshot/RestoreHistory.
package branch

import "fmt"

// Predictor is the interface the fetch stage uses.
type Predictor interface {
	// Predict returns the predicted direction for the branch at pc.
	Predict(pc uint64) bool
	// Update trains the predictor with the resolved outcome and
	// advances the global history.
	Update(pc uint64, taken bool)
	// HistorySnapshot returns the current global-history register so a
	// checkpoint can restore the fetch-time context after a rollback.
	HistorySnapshot() uint64
	// RestoreHistory rewinds the global history to a snapshot.
	RestoreHistory(h uint64)
	// Stats returns prediction counters.
	Stats() Stats
}

// Stats counts predictor performance.
type Stats struct {
	Predictions uint64
	Mispredicts uint64
}

// MispredictRate returns mispredicts/predictions, or 0 if unused.
func (s Stats) MispredictRate() float64 {
	if s.Predictions == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Predictions)
}

// Gshare is the classic gshare predictor: a table of 2-bit saturating
// counters indexed by PC XOR global history.
type Gshare struct {
	table   []uint8
	mask    uint64
	history uint64
	stats   Stats
}

// NewGshare builds a gshare predictor with a 2^bits-entry counter table
// (bits=14 gives the paper's 16K-history configuration). Counters start
// weakly taken, which suits loop-dominated numerical codes.
func NewGshare(bits int) *Gshare {
	if bits < 1 || bits > 30 {
		panic(fmt.Sprintf("branch: gshare bits %d out of range", bits))
	}
	g := &Gshare{
		table: make([]uint8, 1<<bits),
		mask:  (1 << bits) - 1,
	}
	for i := range g.table {
		g.table[i] = 2 // weakly taken
	}
	return g
}

func (g *Gshare) index(pc uint64) uint64 {
	// Drop the low two bits: instructions are 4-byte aligned.
	return ((pc >> 2) ^ g.history) & g.mask
}

// Predict implements Predictor.
func (g *Gshare) Predict(pc uint64) bool {
	return g.table[g.index(pc)] >= 2
}

// Update implements Predictor. It counts a misprediction when the
// prediction at the current history disagrees with the outcome, trains
// the counter, and shifts the outcome into the global history.
func (g *Gshare) Update(pc uint64, taken bool) {
	idx := g.index(pc)
	g.stats.Predictions++
	pred := g.table[idx] >= 2
	if pred != taken {
		g.stats.Mispredicts++
	}
	if taken {
		if g.table[idx] < 3 {
			g.table[idx]++
		}
	} else if g.table[idx] > 0 {
		g.table[idx]--
	}
	g.history = (g.history<<1 | boolBit(taken)) & g.mask
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// HistorySnapshot implements Predictor.
func (g *Gshare) HistorySnapshot() uint64 { return g.history }

// RestoreHistory implements Predictor.
func (g *Gshare) RestoreHistory(h uint64) { g.history = h & g.mask }

// Stats implements Predictor.
func (g *Gshare) Stats() Stats { return g.stats }

// Perfect always predicts correctly. The simulator special-cases it by
// never charging misprediction penalties; Predict's return value is
// therefore irrelevant and fixed to taken.
type Perfect struct{ stats Stats }

// NewPerfect returns a perfect predictor.
func NewPerfect() *Perfect { return &Perfect{} }

// Predict implements Predictor.
func (p *Perfect) Predict(uint64) bool { return true }

// Update implements Predictor.
func (p *Perfect) Update(uint64, bool) { p.stats.Predictions++ }

// HistorySnapshot implements Predictor.
func (p *Perfect) HistorySnapshot() uint64 { return 0 }

// RestoreHistory implements Predictor.
func (p *Perfect) RestoreHistory(uint64) {}

// Stats implements Predictor.
func (p *Perfect) Stats() Stats { return p.stats }

// Confidence is a branch-confidence estimator in the style of
// Jacobsen, Rotenberg and Smith: a table of saturating counters indexed
// by PC, incremented on every correct prediction and reset on every
// misprediction. A counter below the caller's threshold means the
// branch has mispredicted recently and is likely to do so again — the
// adaptive commit policy places a checkpoint immediately before such
// branches so the eventual rollback is cheap.
//
// Counters start at the ceiling ("confident until proven otherwise"):
// a cold workload behaves exactly like one without the estimator until
// the first misprediction, instead of checkpointing at every branch
// while the table warms up.
type Confidence struct {
	table []uint8
	mask  uint64
	max   uint8
}

// NewConfidence builds an estimator with a 2^bits-entry table of
// counters saturating at max (1..255).
func NewConfidence(bits, max int) *Confidence {
	if bits < 1 || bits > 30 {
		panic(fmt.Sprintf("branch: confidence bits %d out of range", bits))
	}
	if max < 1 || max > 255 {
		panic(fmt.Sprintf("branch: confidence counter max %d out of range", max))
	}
	e := &Confidence{
		table: make([]uint8, 1<<bits),
		mask:  (1 << bits) - 1,
		max:   uint8(max),
	}
	for i := range e.table {
		e.table[i] = e.max
	}
	return e
}

func (e *Confidence) index(pc uint64) uint64 {
	// Drop the low two bits: instructions are 4-byte aligned.
	return (pc >> 2) & e.mask
}

// Value returns the current counter for the branch at pc.
func (e *Confidence) Value(pc uint64) uint8 { return e.table[e.index(pc)] }

// Update trains the estimator with one resolved prediction: correct
// predictions saturate the counter upward, a misprediction resets it to
// zero (the JRS "resetting counter" scheme).
func (e *Confidence) Update(pc uint64, correct bool) {
	i := e.index(pc)
	if !correct {
		e.table[i] = 0
		return
	}
	if e.table[i] < e.max {
		e.table[i]++
	}
}
