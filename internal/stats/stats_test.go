package stats

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestRetireClassNames(t *testing.T) {
	want := map[RetireClass]string{
		RetireMoved:        "Moved",
		RetireFinished:     "Finished",
		RetireShortLat:     "Short Lat.",
		RetireFinishedLoad: "Finished Loads",
		RetireLongLatLoad:  "Long Lat. Loads",
		RetireStore:        "Stores",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), s)
		}
	}
}

func TestBreakdown(t *testing.T) {
	var b Breakdown
	b[RetireMoved] = 30
	b[RetireStore] = 10
	b[RetireFinished] = 60
	if b.Total() != 100 {
		t.Fatalf("total = %d", b.Total())
	}
	if got := b.Fraction(RetireMoved); got != 0.3 {
		t.Fatalf("fraction = %v", got)
	}
	if (Breakdown{}).Fraction(RetireMoved) != 0 {
		t.Fatal("empty breakdown must report 0")
	}
	if s := b.String(); !strings.Contains(s, "Moved 30.0%") {
		t.Fatalf("rendering: %q", s)
	}
}

func TestOccupancyPercentiles(t *testing.T) {
	o := NewOccupancy(100)
	// 100 samples: occupancy i at cycle i.
	for i := 0; i <= 99; i++ {
		o.SampleN(1, i, i/10, i/20)
	}
	if o.Samples() != 100 {
		t.Fatalf("samples = %d", o.Samples())
	}
	if got := o.Percentile(0.25); got != 24 {
		t.Errorf("p25 = %d, want 24", got)
	}
	if got := o.Percentile(0.50); got != 49 {
		t.Errorf("p50 = %d, want 49", got)
	}
	if got := o.Percentile(1.0); got != 99 {
		t.Errorf("p100 = %d, want 99", got)
	}
	if got := o.Mean(); got != 49.5 {
		t.Errorf("mean = %v, want 49.5", got)
	}
	if got := o.Max(); got != 99 {
		t.Errorf("max = %d", got)
	}
}

func TestOccupancyLiveAtPercentile(t *testing.T) {
	o := NewOccupancy(10)
	o.SampleN(1, 1, 4, 2)
	o.SampleN(1, 2, 8, 4)
	o.SampleN(1, 10, 100, 100)
	long, short := o.LiveAtPercentile(0.67)
	// Cycles with occupancy <= p67 (=2): averages of (4,8) and (2,4).
	if long != 6 || short != 3 {
		t.Fatalf("live = (%v, %v), want (6, 3)", long, short)
	}
}

func TestOccupancyClamping(t *testing.T) {
	o := NewOccupancy(4)
	o.SampleN(1, 100, 0, 0) // clamps to the top bucket
	o.SampleN(1, -5, 0, 0)  // clamps to zero
	if o.Percentile(1.0) != 4 {
		t.Fatal("overflow sample must clamp to capacity")
	}
	if o.Samples() != 2 {
		t.Fatal("both samples must count")
	}
}

func TestOccupancyMerge(t *testing.T) {
	a, b := NewOccupancy(10), NewOccupancy(10)
	a.SampleN(1, 1, 1, 0)
	b.SampleN(1, 3, 0, 1)
	b.MergeInto(a)
	if a.Samples() != 2 {
		t.Fatal("merge must add samples")
	}
	if a.Percentile(1.0) != 3 {
		t.Fatal("merged distribution wrong")
	}
}

func TestOccupancyEmpty(t *testing.T) {
	o := NewOccupancy(10)
	if o.Percentile(0.5) != 0 || o.Mean() != 0 {
		t.Fatal("empty tracker must report zeros")
	}
	long, short := o.LiveAtPercentile(0.5)
	if long != 0 || short != 0 {
		t.Fatal("empty tracker live counts must be zero")
	}
}

// Percentile is monotonic in p.
func TestQuickPercentileMonotonic(t *testing.T) {
	f := func(samples []uint8, p1, p2 uint8) bool {
		o := NewOccupancy(256)
		for _, s := range samples {
			o.SampleN(1, int(s), 0, 0)
		}
		a, b := float64(p1%101)/100, float64(p2%101)/100
		if a > b {
			a, b = b, a
		}
		return o.Percentile(a) <= o.Percentile(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOccupancyJSONRoundTrip(t *testing.T) {
	o := NewOccupancy(16)
	o.SampleN(1, 3, 2, 1)
	o.SampleN(1, 7, 5, 0)
	o.SampleN(1, 7, 1, 1)
	data, err := json.Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	back := &Occupancy{}
	if err := json.Unmarshal(data, back); err != nil {
		t.Fatal(err)
	}
	if back.Samples() != o.Samples() || back.Mean() != o.Mean() || back.Max() != o.Max() {
		t.Fatalf("derived fields lost: samples %d/%d mean %v/%v max %d/%d",
			back.Samples(), o.Samples(), back.Mean(), o.Mean(), back.Max(), o.Max())
	}
	if back.Percentile(0.5) != o.Percentile(0.5) {
		t.Fatal("percentiles differ after round trip")
	}
	long, short := back.LiveAtPercentile(0.9)
	wlong, wshort := o.LiveAtPercentile(0.9)
	if long != wlong || short != wshort {
		t.Fatal("live counts differ after round trip")
	}
}

func TestOccupancyJSONMalformed(t *testing.T) {
	back := &Occupancy{}
	if err := json.Unmarshal([]byte(`{"count":[1,2],"sum_long":[1],"sum_short":[1,2]}`), back); err == nil {
		t.Fatal("mismatched histogram lengths must fail")
	}
}

func TestResultsJSONRoundTrip(t *testing.T) {
	o := NewOccupancy(8)
	o.SampleN(1, 2, 1, 0)
	r := Results{
		Name: "checkpoint/fpmix", Cycles: 1000, Committed: 2500,
		Fetched: 3000, Issued: 2600, Rollbacks: 3, SLIQMoved: 40,
		Occ: o,
	}
	r.Retire[RetireMoved] = 7
	r.Branch.Predictions = 100
	r.Branch.Mispredicts = 4
	r.Mem.L2.Accesses = 50
	r.Mem.L2.Misses = 10

	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back Results
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.IPC() != r.IPC() || back.Branch.MispredictRate() != r.Branch.MispredictRate() {
		t.Fatal("derived metrics differ after round trip")
	}
	if back.Occ == nil || back.Occ.Samples() != 1 {
		t.Fatal("occupancy lost in round trip")
	}
	back.Occ, r.Occ = nil, nil
	if !reflect.DeepEqual(back, r) {
		t.Fatalf("round trip changed results:\n%+v\n%+v", back, r)
	}
}

// TestResultsMerge pins how AddInterval folds sampled windows into a
// run total: counters add the interval, the in-flight mean is
// cycle-weighted, the maximum keeps the largest full snapshot, and the
// name is adopted only while the total has none.
func TestResultsMerge(t *testing.T) {
	warm := Results{Name: "warm", Cycles: 100, Committed: 150, MeanInflight: 10, MaxInflight: 20}
	warm.Retire[RetireStore] = 2
	warm.Branch.Predictions = 10
	full := Results{Name: "a", Cycles: 400, Committed: 650, MeanInflight: 25, MaxInflight: 30}
	full.Retire[RetireStore] = 7
	full.Branch.Predictions = 40

	var total Results
	total.AddInterval(full, warm)
	if total.Name != "a" {
		t.Errorf("an empty name must adopt full's, got %q", total.Name)
	}
	if total.Cycles != 300 || total.Committed != 500 {
		t.Errorf("counters: cycles=%d committed=%d", total.Cycles, total.Committed)
	}
	if total.Retire[RetireStore] != 5 || total.Branch.Predictions != 30 {
		t.Error("breakdown or branch counters not folded as deltas")
	}
	// The interval's mean un-weights the snapshots: (25*400 - 10*100) / 300.
	if math.Abs(total.MeanInflight-30) > 1e-9 {
		t.Errorf("interval mean in-flight = %v, want 30", total.MeanInflight)
	}
	if total.MaxInflight != 30 {
		t.Errorf("max in-flight = %d, want 30", total.MaxInflight)
	}

	total.AddInterval(Results{Name: "b", Cycles: 300, Committed: 300, MeanInflight: 10, MaxInflight: 25}, Results{})
	if total.Name != "a" {
		t.Errorf("the fold must keep the total's name, got %q", total.Name)
	}
	if total.IPC() != 800.0/600.0 {
		t.Errorf("folded IPC = %v", total.IPC())
	}
	// Cycle-weighted mean: (30*300 + 10*300) / 600 = 20.
	if math.Abs(total.MeanInflight-20) > 1e-9 {
		t.Errorf("weighted mean in-flight = %v, want 20", total.MeanInflight)
	}
	if total.MaxInflight != 30 {
		t.Errorf("max in-flight = %d, want 30", total.MaxInflight)
	}
}

// TestResultsMergeExhaustive guards AddInterval against new fields:
// every numeric field of Results (recursively, through the BTB and LSQ
// blocks) must be folded, so a counter added later without a fold
// clause fails here instead of silently dropping out of sampled
// results. The total starts at 2, full at 5 and warm at 1 in every
// field: a delta fold reads 2+4=6; the extremes, max(2,5)=5; the
// in-flight mean, (2*2 + 6*4)/6 with the interval's (5*5 - 1*1)/4 = 6.
// Occ and Sampled are not folded: snapshots never carry them.
func TestResultsMergeExhaustive(t *testing.T) {
	special := map[string]float64{
		"MaxInflight":  5,
		"LongestSkip":  5,
		"MeanInflight": 28.0 / 6,
	}
	skip := map[string]bool{"Occ": true, "Sampled": true}

	set := func(r *Results, n int) {
		var walk func(v reflect.Value)
		walk = func(v reflect.Value) {
			for i := 0; i < v.NumField(); i++ {
				f := v.Field(i)
				if skip[v.Type().Field(i).Name] {
					continue
				}
				switch f.Kind() {
				case reflect.Pointer:
					f.Set(reflect.New(f.Type().Elem()))
					walk(f.Elem())
				case reflect.Struct:
					walk(f)
				case reflect.Array:
					for j := 0; j < f.Len(); j++ {
						f.Index(j).SetUint(uint64(n))
					}
				case reflect.Uint64:
					f.SetUint(uint64(n))
				case reflect.Int64, reflect.Int:
					f.SetInt(int64(n))
				case reflect.Float64:
					f.SetFloat(float64(n))
				}
			}
		}
		walk(reflect.ValueOf(r).Elem())
	}

	var total, full, warm Results
	set(&total, 2)
	set(&full, 5)
	set(&warm, 1)
	total.AddInterval(full, warm)

	var check func(v reflect.Value, path string)
	check = func(v reflect.Value, path string) {
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			name := v.Type().Field(i).Name
			if skip[name] {
				continue
			}
			p := path + name
			want := 6.0
			if w, ok := special[p]; ok {
				want = w
			}
			switch f.Kind() {
			case reflect.Pointer:
				check(f.Elem(), p+".")
			case reflect.Struct:
				check(f, p+".")
			case reflect.Array:
				for j := 0; j < f.Len(); j++ {
					if got := float64(f.Index(j).Uint()); got != want {
						t.Errorf("%s[%d] = %v after AddInterval, want %v (not folded?)", p, j, got, want)
					}
				}
			case reflect.Uint64:
				if got := float64(f.Uint()); got != want {
					t.Errorf("%s = %v after AddInterval, want %v (not folded?)", p, got, want)
				}
			case reflect.Int64, reflect.Int:
				if got := float64(f.Int()); got != want {
					t.Errorf("%s = %v after AddInterval, want %v (not folded?)", p, got, want)
				}
			case reflect.Float64:
				if got := f.Float(); got != want {
					t.Errorf("%s = %v after AddInterval, want %v (not folded?)", p, got, want)
				}
			}
		}
	}
	check(reflect.ValueOf(total), "")
}

func TestResultsDerived(t *testing.T) {
	r := Results{Cycles: 1000, Committed: 2500, Replayed: 250}
	if r.IPC() != 2.5 {
		t.Fatalf("IPC = %v", r.IPC())
	}
	if r.ReplayRate() != 0.1 {
		t.Fatalf("replay rate = %v", r.ReplayRate())
	}
	var zero Results
	if zero.IPC() != 0 || zero.ReplayRate() != 0 {
		t.Fatal("zero results must not divide by zero")
	}
	r.Name = "test"
	if s := r.String(); !strings.Contains(s, "IPC=2.500") {
		t.Fatalf("rendering: %q", s)
	}
}

func TestPolicyCountersJSONAndMerge(t *testing.T) {
	a := Results{Cycles: 10, Policy: map[string]uint64{"adaptive.low_confidence_branches": 3}}
	data, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	var back Results
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Policy["adaptive.low_confidence_branches"] != 3 {
		t.Fatalf("policy counters lost in round trip: %+v", back.Policy)
	}
	// A nil map must be omitted entirely: results from policies without
	// extra counters keep their old wire shape.
	plain, err := json.Marshal(Results{Cycles: 10})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(plain, []byte("Policy")) {
		t.Fatalf("nil policy map must be omitted: %s", plain)
	}

	// AddInterval folds per key (materialising the total's map on
	// demand): counters add their interval delta, while max_-style
	// metrics take the maximum, since summing two peak values would
	// fabricate a burst no run ever observed. A max_ key is stored only
	// when it exceeds the value held; every other key of full is stored
	// even when its delta is zero.
	var c Results
	c.AddInterval(a, Results{})
	c.AddInterval(Results{Policy: map[string]uint64{
		"adaptive.low_confidence_branches": 9,
		"oracle.max_retire_burst":          40,
	}}, Results{Policy: map[string]uint64{
		"adaptive.low_confidence_branches": 7,
		"oracle.max_retire_burst":          38,
	}})
	c.AddInterval(Results{Policy: map[string]uint64{"oracle.max_retire_burst": 25}}, Results{})
	if c.Policy["adaptive.low_confidence_branches"] != 5 {
		t.Fatalf("summed policy counter wrong: %+v", c.Policy)
	}
	if c.Policy["oracle.max_retire_burst"] != 40 {
		t.Fatalf("max-style policy counter must fold by maximum: %+v", c.Policy)
	}
	var z Results
	z.AddInterval(Results{Policy: map[string]uint64{
		"adaptive.branch_checkpoints": 4,
		"oracle.max_retire_burst":     0,
	}}, Results{Policy: map[string]uint64{"adaptive.branch_checkpoints": 4}})
	if v, ok := z.Policy["adaptive.branch_checkpoints"]; !ok || v != 0 {
		t.Fatalf("a zero delta must still store its key: %+v", z.Policy)
	}
	if _, ok := z.Policy["oracle.max_retire_burst"]; ok {
		t.Fatalf("a max_ key no larger than the value held must not be stored: %+v", z.Policy)
	}
}

// TestOccupancySampleN pins the clock skip's weighted sampling: n
// identical samples recorded at once must leave the histogram
// bit-identical to n single-cycle samples, including clamping and max
// tracking.
func TestOccupancySampleN(t *testing.T) {
	a, b := NewOccupancy(8), NewOccupancy(8)
	record := func(o *Occupancy, n uint64, inflight, long, short int) {
		for i := uint64(0); i < n; i++ {
			o.SampleN(1, inflight, long, short)
		}
	}
	for _, s := range []struct {
		n                     uint64
		inflight, long, short int
	}{
		{3, 2, 1, 0},
		{0, 5, 0, 0},  // n=0 must record nothing
		{4, 12, 2, 3}, // clamps to the top bucket
		{1, -1, 0, 0}, // clamps below
		{2, 2, 0, 4},
	} {
		record(a, s.n, s.inflight, s.long, s.short)
		b.SampleN(s.n, s.inflight, s.long, s.short)
	}
	if a.Samples() != b.Samples() {
		t.Fatalf("samples: %d vs %d", a.Samples(), b.Samples())
	}
	if am, bm := a.Mean(), b.Mean(); am != bm {
		t.Fatalf("mean: %v vs %v", am, bm)
	}
	for _, p := range []float64{0.25, 0.5, 0.75, 0.95, 1} {
		if ap, bp := a.Percentile(p), b.Percentile(p); ap != bp {
			t.Fatalf("p%v: %d vs %d", p, ap, bp)
		}
	}
}

// TestSkipCountersOmittedWhenZero guards the cache-compatibility
// contract: a run that never skipped must serialise byte-identically to
// results recorded before the skip counters existed, so the daemon's
// content-addressed cache keeps validating old entries.
func TestSkipCountersOmittedWhenZero(t *testing.T) {
	var r Results
	r.Name = "x"
	r.Cycles = 10
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"SkippedCycles", "SkipEvents", "LongestSkip"} {
		if bytes.Contains(raw, []byte(field)) {
			t.Fatalf("zero %s must be omitted from JSON: %s", field, raw)
		}
	}
	r.SkippedCycles, r.SkipEvents, r.LongestSkip = 7, 2, 5
	raw, err = json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"SkippedCycles", "SkipEvents", "LongestSkip"} {
		if !bytes.Contains(raw, []byte(field)) {
			t.Fatalf("non-zero %s missing from JSON: %s", field, raw)
		}
	}
}

// TestCheckIdentities breaks each counter identity of a consistent
// result in turn, and exempts a sampled result.
func TestCheckIdentities(t *testing.T) {
	ok := Results{
		Name: "ok", Cycles: 10, Fetched: 8, Dispatched: 8, Issued: 7,
		Committed: 5, Replayed: 2, CheckpointsTaken: 3, CheckpointsCommitted: 2,
		SLIQMoved: 2, SLIQWoken: 2, Retire: Breakdown{RetireFinished: 8},
		Occ: NewOccupancy(8),
	}
	ok.Occ.SampleN(10, 1, 0, 0)
	if err := ok.CheckIdentities(); err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*Results){
		"fetched":     func(r *Results) { r.Fetched++ },
		"issued":      func(r *Results) { r.Issued = 9 },
		"committed":   func(r *Results) { r.Replayed = 4 },
		"checkpoints": func(r *Results) { r.CheckpointsCommitted = 4 },
		"sliq":        func(r *Results) { r.SLIQWoken = 3 },
		"retire":      func(r *Results) { r.Retire[RetireStore] = 1 },
		"occupancy":   func(r *Results) { r.Cycles = 11 },
	} {
		r := ok
		mutate(&r)
		if r.CheckIdentities() == nil {
			t.Errorf("%s: a broken identity passed", name)
		}
		r.Sampled = &Sampled{}
		if err := r.CheckIdentities(); err != nil {
			t.Errorf("%s: a sampled result must be exempt: %v", name, err)
		}
	}
}
