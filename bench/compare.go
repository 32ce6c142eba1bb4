package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// boundedMetric is an end-to-end metric as BENCHMARK.json declares it.
type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// compareSets prints, for every end-to-end metric and workload, both
// sets' medians and quartiles, the ratio B/A and a verdict against the
// metric's bound: "worse" or "better" when the medians differ by more than
// the bound, "within" otherwise, and "unresolved" when either set's
// spread (interquartile range over median) is wider than the bound —
// unless every run of B beats every run of A, which reads "better".
// setup_s is judged on its medians alone: a cheap set-up is mostly
// process start, whose spread between runs no run length removes. It
// reports whether any verdict is "worse".
func compareSets(out io.Writer, aPath, bPath, benchPath string) (bool, error) {
	var bench struct {
		EndToEnd []boundedMetric `json:"end_to_end"`
	}
	if err := readJSON(benchPath, &bench); err != nil {
		return false, err
	}
	var a, b []record
	if err := readJSON(aPath, &a); err != nil {
		return false, err
	}
	if err := readJSON(bPath, &b); err != nil {
		return false, err
	}
	worse := false
	fmt.Fprintf(out, "%-18s %-14s %26s %26s %8s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B/A", "verdict")
	for _, w := range workloadNames() {
		for _, m := range bench.EndToEnd {
			av, bv := values(a, w, m.Name), values(b, w, m.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			v := verdict(m, av, bv)
			worse = worse || v == "worse"
			aq1, aq3 := quartiles(av)
			bq1, bq3 := quartiles(bv)
			fmt.Fprintf(out, "%-18s %-14s %9.4g [%6.4g, %6.4g] %9.4g [%6.4g, %6.4g] %8.4f  %s (bound %.0f%%)\n",
				w, m.Name, median(av), aq1, aq3, median(bv), bq1, bq3, median(bv)/median(av), v, 100*m.Bound)
		}
	}
	return worse, nil
}

// verdict judges set B against set A for one metric.
func verdict(m boundedMetric, a, b []float64) string {
	ma, mb := median(a), median(b)
	spread := func(xs []float64, med float64) float64 {
		q1, q3 := quartiles(xs)
		return (q3 - q1) / med
	}
	// worsening is B's change against A, positive when B is worse.
	worsening := (mb - ma) / ma
	if m.Better == "higher" {
		worsening = -worsening
	}
	allBetter := m.Better == "higher" && slices.Min(b) > slices.Max(a) ||
		m.Better == "lower" && slices.Max(b) < slices.Min(a)
	switch {
	case m.Name != "setup_s" && max(spread(a, ma), spread(b, mb)) > m.Bound:
		if allBetter {
			return "better"
		}
		return "unresolved"
	case worsening > m.Bound:
		return "worse"
	case worsening < -m.Bound:
		return "better"
	}
	return "within"
}

// values collects one metric of one workload over a set's end-to-end runs.
func values(recs []record, workload, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && !r.Trace {
			out = append(out, m.Value)
		}
	}
	return out
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
