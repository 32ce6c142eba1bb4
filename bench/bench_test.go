package main

import (
	"os"
	"reflect"
	"testing"
	"time"
)

func TestPercentileTailRule(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, beyond := percentile(xs, 99); v != 990 || beyond != 10 {
		t.Errorf("p99 of 1..1000 = %v with %d beyond, want 990 with 10", v, beyond)
	}
	if _, beyond := percentile(xs[:999], 99); beyond >= 10 {
		t.Errorf("p99 of 999 samples has %d beyond; 1000 samples are the least that give 10", beyond)
	}
	if v, beyond := percentile(xs[:5], 99); v != 5 || beyond != 0 {
		t.Errorf("p99 of 5 samples = %v with %d beyond, want the maximum with 0", v, beyond)
	}
	if v, _ := percentile(xs[:4], 50); v != 2 {
		t.Errorf("p50 of 1..4 by nearest rank = %v, want 2", v)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Values from Python's statistics.quantiles(data, n=4).
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{7, 1, 3}, 1, 7},
		{[]float64{4}, 4, 4},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{3, 1, 4, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "batch", StartNS: 0, EndNS: 100},
		// Two overlapping children cover 10..50 once, and one that
		// outlives its parent covers only 90..100 of it.
		{ID: 2, Parent: 1, Name: "point", StartNS: 10, EndNS: 30},
		{ID: 3, Parent: 1, Name: "point", StartNS: 20, EndNS: 50},
		{ID: 4, Parent: 1, Name: "point", StartNS: 90, EndNS: 120},
		{ID: 5, Parent: 3, Name: "sim", StartNS: 25, EndNS: 35},
		{ID: 6, Name: "open", StartNS: 5, EndNS: -1},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"batch": 50, "point": 20 + 20 + 30, "sim": 10}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestFoldFixture(t *testing.T) {
	f, err := os.Open("testdata/pprof_traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stages, total, err := fold(f, stageCats)
	if err != nil {
		t.Fatal(err)
	}
	if total != 2370*time.Millisecond {
		t.Errorf("total = %v, want 2.37s", total)
	}
	wantStages := map[string]time.Duration{
		"mem.stage": 1200 * time.Millisecond, // innermost: beats issueStage
		"dispatch":  500 * time.Millisecond,  // an inlined frame
		"rv32.emit": 400 * time.Millisecond,
		"commit":    60 * time.Millisecond,
		// The mem sample under warmWhole is outside CPU.Run: no stage.
	}
	if !reflect.DeepEqual(stages, wantStages) {
		t.Errorf("stage fold = %v, want %v", stages, wantStages)
	}

	if _, err := f.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	phases, _, err := fold(f, phaseCats)
	if err != nil {
		t.Fatal(err)
	}
	wantPhases := map[string]time.Duration{
		"detail": 500 * time.Millisecond, // CPU.Run inside RunSampled only
		"ff":     400 * time.Millisecond,
		"warm":   200 * time.Millisecond,
	}
	if !reflect.DeepEqual(phases, wantPhases) {
		t.Errorf("phase fold = %v, want %v", phases, wantPhases)
	}
}

func TestParsePprofDuration(t *testing.T) {
	for in, want := range map[string]time.Duration{
		"10ms": 10 * time.Millisecond, "1.20s": 1200 * time.Millisecond,
		"250us": 250 * time.Microsecond, "2.50mins": 150 * time.Second, "7ns": 7,
	} {
		if got, err := parsePprofDuration(in); err != nil || got != want {
			t.Errorf("parsePprofDuration(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := parsePprofDuration("12 apples"); err == nil {
		t.Error("parsePprofDuration accepted a value with no unit")
	}
}

func TestSeededInputs(t *testing.T) {
	if !reflect.DeepEqual(fleetPoints(1, 10_000, 7), fleetPoints(1, 10_000, 7)) {
		t.Error("fleetPoints differs between two calls with one seed")
	}
	if reflect.DeepEqual(fleetPoints(1, 10_000, 7), fleetPoints(1, 10_000, 8)) {
		t.Error("fleetPoints is the same for seeds 7 and 8")
	}
	schedule := func(seed uint64) [][]int {
		inst, err := setupFleetCold(seed)
		if err != nil {
			t.Fatal(err)
		}
		return inst.(*fleetLoad).schedule
	}
	if !reflect.DeepEqual(schedule(7), schedule(7)) {
		t.Error("fleet-cold schedule differs between two set-ups with one seed")
	}
	if reflect.DeepEqual(schedule(7), schedule(8)) {
		t.Error("fleet-cold schedule is the same for seeds 7 and 8")
	}
	recipes := func(seed uint64) []string {
		inst, err := setupSampled(seed)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, s := range inst.(*sweep).specs {
			r, _ := s.Trace.Recipe()
			out = append(out, r.String())
		}
		return out
	}
	if !reflect.DeepEqual(recipes(7), recipes(7)) {
		t.Error("sampled-programs recipes differ between two set-ups with one seed")
	}
	if reflect.DeepEqual(recipes(7), recipes(8)) {
		t.Error("sampled-programs recipes are the same for seeds 7 and 8")
	}
}

func TestVerdict(t *testing.T) {
	higher := boundedMetric{Name: "points_per_s", Better: "higher", Bound: 0.1}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		b    []float64
		want string
	}{
		{[]float64{98, 99, 100, 97, 99}, "within"},
		{[]float64{80, 81, 79, 80, 80}, "worse"},
		{[]float64{120, 121, 119, 120, 120}, "better"},
		{[]float64{60, 100, 140, 100, 100}, "unresolved"},
	} {
		if got := verdict(higher, steady, c.b); got != c.want {
			t.Errorf("verdict(%v) = %s, want %s", c.b, got, c.want)
		}
	}
	lower := boundedMetric{Name: "batch_p99_ms", Better: "lower", Bound: 0.1}
	if got := verdict(lower, steady, []float64{150, 151, 149, 150, 150}); got != "worse" {
		t.Errorf("a 50%% higher latency reads %s, want worse", got)
	}
	setup := boundedMetric{Name: "setup_s", Better: "lower", Bound: 0.1}
	if got := verdict(setup, steady, []float64{60, 100, 140, 100, 100}); got != "within" {
		t.Errorf("a wide set-up spread with an equal median reads %s, want within", got)
	}
}

// TestBenchmarkJSONMatches checks BENCHMARK.json against what the runs
// report: the workloads, every end-to-end metric, and every per-layer
// metric with its unit.
func TestBenchmarkJSONMatches(t *testing.T) {
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []boundedMetric               `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := readJSON("../BENCHMARK.json", &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames())
	}
	e2e := map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	want := map[string]string{"setup_s": "s", "points_per_s": "points/s", "batch_p50_ms": "ms", "batch_p99_ms": "ms", "peak_rss_mb": "MB"}
	if !reflect.DeepEqual(e2e, want) {
		t.Errorf("BENCHMARK.json end-to-end metrics %v, runs report %v", e2e, want)
	}
	layers := map[string]string{}
	for _, m := range b.PerLayer {
		layers[m.Name] = m.Unit
	}
	if !reflect.DeepEqual(layers, layerUnits) {
		t.Errorf("BENCHMARK.json per-layer metrics differ from layerUnits:\n%v\n%v", layers, layerUnits)
	}
}
