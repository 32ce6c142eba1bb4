// Package vreg models the ephemeral/virtual register mechanism the paper
// combines with out-of-order commit in Figure 14 (references [9], [19],
// [21] of the paper): renaming hands out cheap *virtual tags*; a real
// physical register is bound only when the value is produced (late
// allocation) and is released as soon as its redefining instruction has
// produced the replacement value (early release).
//
// The tracker is a pure admission-control state machine — the simulator
// asks it whether rename/writeback may proceed and informs it of
// redefinitions, completions and squashes. README.md's "Virtual
// registers (Figure 14)" section states the approximations, including
// those made on rollback.
package vreg

import "fmt"

// Tracker accounts virtual tags and physical registers.
type Tracker struct {
	vcap, pcap int
	vLive      int // tags: renamed destinations not yet bound
	pLive      int // bound physical registers not yet released
}

// New builds a tracker with vcap virtual tags and pcap physical
// registers. initialValues is the architectural register count whose
// values occupy physical registers from the start (the logical register
// file size).
func New(vcap, pcap, initialValues int) *Tracker {
	if vcap < 1 || pcap < initialValues {
		panic(fmt.Sprintf("vreg: invalid capacities v=%d p=%d (initial %d)", vcap, pcap, initialValues))
	}
	return &Tracker{vcap: vcap, pcap: pcap, pLive: initialValues}
}

// TagsLive returns the live virtual tag count.
func (t *Tracker) TagsLive() int { return t.vLive }

// PhysLive returns the bound physical register count.
func (t *Tracker) PhysLive() int { return t.pLive }

// TryRename requests a virtual tag for a destination-producing
// instruction. It returns false when the tag space is exhausted; rename
// must retry next cycle.
func (t *Tracker) TryRename() bool {
	if t.vLive >= t.vcap {
		return false
	}
	t.vLive++
	return true
}

// UnRename returns a tag during a squash of a not-yet-completed
// instruction.
func (t *Tracker) UnRename() {
	if t.vLive <= 0 {
		panic("vreg: tag underflow")
	}
	t.vLive--
}

// TryBind converts a tag to a physical register at writeback. fused
// reports that the value is released in the same event (its redefiner
// already completed), in which case no physical register is consumed.
// It returns false when the register file is full; the writeback must
// be deferred and retried after the next Release.
func (t *Tracker) TryBind(fused bool) bool {
	if !fused && t.pLive >= t.pcap {
		return false
	}
	t.vLive--
	if t.vLive < 0 {
		panic("vreg: tag underflow at bind")
	}
	if !fused {
		t.pLive++
	}
	return true
}

// Release frees one bound physical register (the redefiner of its value
// completed, and — under the early-release approximation — its readers
// are accounted done).
func (t *Tracker) Release() {
	if t.pLive <= 0 {
		panic("vreg: physical register underflow")
	}
	t.pLive--
}

// SquashBound releases the register of a squashed instruction whose
// value had already been bound.
func (t *Tracker) SquashBound() { t.Release() }
