// Command bench is the repository benchmark. It runs four workloads the
// way the simulator's users drive it — the figure-9 sweep in full detail,
// a SMARTS-sampled program sweep, and a two-worker loopback fleet cold
// and warm — prints every end-to-end metric with its unit, checks that
// every simulated result is byte-identical across repetitions (and, at
// seed 42, to the digests pinned in baseline.json), and prints one JSON
// result as its last line. A traced run (-trace 1) instead attributes
// host time to the layers underneath. See README.md.
//
// Usage (from the repository root):
//
//	bash bench/run.sh [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-runs R] [-set FILE]
//	bash bench/run.sh -compare A.json B.json
package main

import (
	"bufio"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"
)

const (
	// setupMin, setupMax and setupBudget bound how often a run sets its
	// workload up (see runWorkload); setup_s is the median.
	setupMin    = 3
	setupMax    = 25
	setupBudget = time.Second
	// minReps is the fewest reps a run measures, however long they take.
	minReps = 3
	// outDir holds profiles, span files and set files.
	outDir = ".bench_build/out"
	// pinnedSeed is the seed whose result digests baseline.json pins.
	pinnedSeed = 42
	// childSlack bounds one child process beyond its measured seconds.
	childSlack = 150 * time.Second
)

//go:embed baseline.json
var baselineJSON []byte

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome; its first four fields are the JSON object
// the run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one run in a set file: its result plus what identifies it.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	Digest   string `json:"digest,omitempty"`
	result
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+" (default: all)")
	seed := flag.Uint64("seed", pinnedSeed, "input seed")
	seconds := flag.Float64("seconds", 20, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	runs := flag.Int("runs", 1, "runs per workload, with seeds seed, seed+1, ...")
	setPath := flag.String("set", "", "also write every run to this set file (input of -compare)")
	compare := flag.Bool("compare", false, "compare two set files given as arguments: A.json B.json")
	child := flag.String("child", "", "internal: act as a workload child (setup or run)")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalf("-compare needs two set files")
		}
		worse, err := compareSets(os.Stdout, flag.Arg(0), flag.Arg(1), "BENCHMARK.json")
		if err != nil {
			fatalf("%v", err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fatalf("-trace must be 0 or 1")
	}
	names := workloadNames()
	if *workload != "" {
		if _, ok := lookupWorkload(*workload); !ok {
			fatalf("unknown workload %q (have %s)", *workload, strings.Join(names, ", "))
		}
		names = []string{*workload}
	}
	if *child != "" {
		w, _ := lookupWorkload(*workload)
		if err := runChild(*child, w, *seed, *seconds, *traceFlag == 1); err != nil {
			fatalf("%s: %v", *workload, err)
		}
		return
	}
	if *runs < 1 {
		fatalf("-runs must be at least 1")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatalf("%v", err)
	}

	var recs []record
	ok := true
	for _, name := range names {
		for i := range *runs {
			rec, err := runWorkload(name, *seed+uint64(i), *seconds, *traceFlag == 1)
			if err != nil {
				fatalf("%s: %v", name, err)
			}
			printRecord(rec)
			recs = append(recs, rec)
			ok = ok && rec.Correct
		}
	}
	if *setPath != "" {
		b, err := json.MarshalIndent(recs, "", "  ")
		if err == nil {
			err = os.WriteFile(*setPath, append(b, '\n'), 0o644)
		}
		if err != nil {
			fatalf("write set: %v", err)
		}
	}
	last, err := json.Marshal(summary(recs))
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(last))
	if !ok {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// summary is the last line of a run: the record itself for one run, and
// for several the totals with metrics named <workload>/<metric> carrying
// the median over that workload's runs.
func summary(recs []record) result {
	if len(recs) == 1 {
		return recs[0].result
	}
	out := result{Correct: true, Metrics: map[string]metric{}}
	vals := map[string][]float64{}
	units := map[string]string{}
	for _, r := range recs {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for k, m := range r.Metrics {
			key := r.Workload + "/" + k
			vals[key] = append(vals[key], m.Value)
			units[key] = m.Unit
		}
	}
	for k, v := range vals {
		out.Metrics[k] = metric{median(v), units[k]}
	}
	return out
}

func printRecord(r record) {
	mode := "end-to-end"
	if r.Trace {
		mode = "traced"
	}
	fmt.Printf("%s seed=%d %s: correct=%v attempted=%d failed=%d digest=%.16s\n",
		r.Workload, r.Seed, mode, r.Correct, r.Attempted, r.Failed, r.Digest)
	for _, k := range slices.Sorted(maps.Keys(r.Metrics)) {
		fmt.Printf("  %-36s %14.6g %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
}

// runWorkload runs one workload for one seed, each set-up in a fresh
// child process with GOMAXPROCS=2. An end-to-end run first times
// set-up-only children — at least setupMin set-ups in all, and up to
// setupMax while they add up to less than setupBudget, so that a cheap
// set-up is timed often enough to be steady — and then one more child
// that sets up and measures; setup_s is the median of all of them, scaled
// like the measured times to the reference host's speed.
func runWorkload(name string, seed uint64, seconds float64, traced bool) (record, error) {
	rec := record{Workload: name, Seed: seed, Trace: traced}
	var setups []float64
	total := 0.0
	for !traced && (len(setups)+1 < setupMin || len(setups)+1 < setupMax && total < setupBudget.Seconds()) {
		d, _, err := spawnChild("setup", name, seed, seconds, false)
		if err != nil {
			return rec, err
		}
		setups = append(setups, d.Seconds())
		total += d.Seconds()
	}
	d, out, err := spawnChild("run", name, seed, seconds, traced)
	if err != nil {
		return rec, err
	}
	var cr childResult
	if err := json.Unmarshal(out, &cr); err != nil {
		return rec, fmt.Errorf("child result: %w", err)
	}
	rec.result = cr.result
	rec.Digest = cr.Digest
	if !traced {
		setups = append(setups, d.Seconds())
		fmt.Fprintf(os.Stderr, "%s: %d set-ups, unscaled median %.4g s (min %.4g, max %.4g)\n",
			name, len(setups), median(setups), slices.Min(setups), slices.Max(setups))
		rec.Metrics["setup_s"] = metric{median(setups) / cr.Slowdown, "s"}
	}
	return rec, nil
}

// childResult is what a measuring child prints as its last line.
type childResult struct {
	result
	Digest string `json:"digest"`
	// Slowdown is how much slower than on the reference host the
	// calibration kernel ran during the measurement (see calibrate.go).
	Slowdown float64 `json:"slowdown,omitempty"`
}

// spawnChild starts one child and returns the time from its start until
// it reported its set-up done, and its final stdout line.
func spawnChild(mode, name string, seed uint64, seconds float64, traced bool) (time.Duration, []byte, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(seconds*float64(time.Second))+childSlack)
	defer cancel()
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, self, "-child", mode, "-workload", name,
		"-seed", strconv.FormatUint(seed, 10), "-seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "-trace", trace)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(workers))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, nil, err
	}
	var setup time.Duration
	var last []byte
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		if setup == 0 && sc.Text() == "ready" {
			setup = time.Since(start)
			continue
		}
		last = append(last[:0], sc.Bytes()...)
	}
	if err := cmd.Wait(); err != nil {
		return 0, nil, fmt.Errorf("%s child: %w", mode, err)
	}
	if setup == 0 {
		return 0, nil, errors.New("child never reported its set-up done")
	}
	return setup, last, nil
}

// runChild is the child side: set up, report "ready", and in run mode
// measure and print the result as the last line.
func runChild(mode string, w workload, seed uint64, seconds float64, traced bool) error {
	inst, err := w.setup(seed)
	if err != nil {
		return err
	}
	defer inst.close()
	fmt.Println("ready")
	if mode == "setup" {
		return nil
	}
	var cr childResult
	if traced {
		cr, err = tracedRun(w, inst, seed)
	} else {
		cr, err = measure(w, inst, seed, seconds)
	}
	if err != nil {
		return err
	}
	b, err := json.Marshal(cr)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// measure repeats reps for the measured seconds (at least minReps),
// timing the calibration kernel before each rep and after the last, and
// reports the end-to-end metrics as medians over reps (latencies pooled),
// with times scaled to the reference host's speed (see calibrate.go).
func measure(w workload, inst instance, seed uint64, seconds float64) (childResult, error) {
	var reps []repResult
	var calib []float64
	start := time.Now()
	for len(reps) < minReps || time.Since(start).Seconds() < seconds {
		calib = append(calib, calibrate().Seconds())
		r, err := inst.rep(nil)
		if err != nil {
			return childResult{}, err
		}
		reps = append(reps, r)
	}
	calib = append(calib, calibrate().Seconds())
	cr := outcome(w.name, seed, reps)
	cr.Slowdown = median(calib) / calibrationRef.Seconds()
	var rates, lat []float64
	for _, r := range reps {
		rates = append(rates, float64(r.attempted)/r.wall.Seconds())
		for _, d := range r.batches {
			lat = append(lat, float64(d)/float64(time.Millisecond))
		}
	}
	p50, _ := percentile(lat, 50)
	p99, beyond := percentile(lat, 99)
	walls := make([]string, len(reps))
	for i, r := range reps {
		walls[i] = fmt.Sprintf("%.3f", r.wall.Seconds())
	}
	fmt.Fprintf(os.Stderr, "%s: %d reps in %.1fs (rep walls %s s), %d batches (%d beyond p99); "+
		"unscaled points/s %.4g, p50 %.4g ms, p99 %.4g ms; host slowdown %.3f\n",
		w.name, len(reps), time.Since(start).Seconds(), strings.Join(walls, " "), len(lat), beyond,
		median(rates), p50, p99, cr.Slowdown)
	cr.Metrics["points_per_s"] = metric{median(rates) * cr.Slowdown, "points/s"}
	cr.Metrics["batch_p50_ms"] = metric{p50 / cr.Slowdown, "ms"}
	cr.Metrics["batch_p99_ms"] = metric{p99 / cr.Slowdown, "ms"}
	rss, err := peakRSSMB()
	if err != nil {
		return cr, err
	}
	cr.Metrics["peak_rss_mb"] = metric{rss, "MB"}
	return cr, nil
}

// outcome totals the reps' points and checks their outputs; a run whose
// outputs are wrong counts every point as failed.
func outcome(name string, seed uint64, reps []repResult) childResult {
	cr := childResult{result: result{Metrics: map[string]metric{}}}
	for _, r := range reps {
		cr.Attempted += r.attempted
		cr.Failed += r.failed
	}
	cr.Digest, cr.Correct = checkDigests(name, seed, reps)
	if !cr.Correct {
		cr.Failed = cr.Attempted
	}
	return cr
}

// checkDigests returns the digest every rep produced and whether the
// outputs are correct: no point missing, every rep the same digest, and
// at the pinned seed the digest baseline.json records.
func checkDigests(name string, seed uint64, reps []repResult) (string, bool) {
	d := reps[0].digest()
	ok := d != ""
	for _, r := range reps[1:] {
		if r.digest() != d {
			fmt.Fprintf(os.Stderr, "%s: rep digests differ (%.16s vs %.16s)\n", name, d, r.digest())
			ok = false
		}
	}
	if seed == pinnedSeed {
		var b struct {
			Digests map[string]string `json:"digests_seed42"`
		}
		if err := json.Unmarshal(baselineJSON, &b); err != nil || b.Digests[name] != d {
			fmt.Fprintf(os.Stderr, "%s: digest %s does not match the pinned %q\n", name, d, b.Digests[name])
			ok = false
		}
	}
	return d, ok
}

// peakRSSMB reads this process's peak resident set (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// outPath names a file under outDir for one workload and seed.
func outPath(w string, seed uint64, suffix string) string {
	return filepath.Join(outDir, fmt.Sprintf("%s-seed%d%s", w, seed, suffix))
}
