package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"
)

// TestLoadPointsDistinct: past two passes of the space, every point is
// still a distinct, valid simulation point.
func TestLoadPointsDistinct(t *testing.T) {
	seen := map[string]string{}
	for _, j := range LoadPoints(1000, 1500, 42) {
		if err := j.Validate(); err != nil {
			t.Fatalf("%s: %v", j.Name, err)
		}
		fp, err := j.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if prev, ok := seen[fp]; ok {
			t.Errorf("%s repeats %s", j.Name, prev)
		}
		seen[fp] = j.Name
	}
}

// TestLoadPointsSampling: every fifth point runs sampled exactly when
// the sampling period, insts/2, is at least 260.
func TestLoadPointsSampling(t *testing.T) {
	for insts, sampling := range map[uint64]bool{518: false, 519: false, 520: true, 10_000: true} {
		for i, j := range LoadPoints(50, insts, 42) {
			if want := sampling && i%5 == 4; j.Sample.Enabled() != want {
				t.Errorf("insts %d: %s sampled=%v, want %v", insts, j.Name, j.Sample.Enabled(), want)
			}
		}
	}
}

// TestLoadPointsPinned pins the fingerprints of the benchmark's fleet
// point list (two passes at 10,000 instructions, seed 42). The digest was
// computed from the benchmark's own copy of this space, fleetPoints(2,
// 10_000, 42) in bench/workloads.go, before LoadPoints existed; a change
// here moves the benchmark's fleet digests.
func TestLoadPointsPinned(t *testing.T) {
	jobs := LoadPoints(726, 10_000, 42)
	h := sha256.New()
	for _, j := range jobs {
		fp, err := j.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		io.WriteString(h, fp+"\n")
	}
	const want = "f2be102d8886979d8e89507d40870abd89f6ea5d439d7b76aca98248c6078d0a"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("LoadPoints(726, 10000, 42) fingerprint digest = %s, want %s", got, want)
	}
	if last := jobs[725]; last.Name != "p725" || last.Insts != 10_001 {
		t.Errorf("last point %s at %d insts, want p725 at 10001", last.Name, last.Insts)
	}
}
