package main

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// category names the profile samples one layer accounts for: a sample
// belongs to the category whose matching frame is innermost on its stack,
// provided within, when set, matches a frame further out. Innermost
// attribution keeps the categories of one fold from overlapping.
type category struct {
	name   string
	frame  *regexp.Regexp
	within *regexp.Regexp
}

// fold reads the output of `go tool pprof -traces` and returns, per
// category, the sampled time attributed to it, and the total sampled time
// of the profile. Samples matching no category count only in the total.
func fold(r io.Reader, cats []category) (map[string]time.Duration, time.Duration, error) {
	by := map[string]time.Duration{}
	var total time.Duration
	var value time.Duration
	var frames []string
	flush := func() {
		if frames == nil {
			return
		}
		total += value
		if c := attribute(frames, cats); c != "" {
			by[c] += value
		}
		frames = nil
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	inTraces := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inTraces = true
			continue
		}
		if !inTraces || strings.TrimSpace(line) == "" {
			continue
		}
		if frames == nil {
			// A trace opens with its sample value, then its leaf frame.
			f := strings.Fields(line)
			if len(f) < 2 {
				return nil, 0, fmt.Errorf("fold: malformed trace line %q", line)
			}
			v, err := parsePprofDuration(f[0])
			if err != nil {
				return nil, 0, err
			}
			value = v
			frames = []string{f[1]}
			continue
		}
		// Inlined calls carry a suffix; they are frames like any other.
		frames = append(frames, strings.TrimSuffix(strings.TrimSpace(line), " (inline)"))
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	flush()
	if !inTraces {
		return nil, 0, fmt.Errorf("fold: no traces in pprof output")
	}
	return by, total, nil
}

// attribute returns the category of the innermost matching frame of a
// stack listed leaf first, or "" when none matches.
func attribute(frames []string, cats []category) string {
	for i, f := range frames {
		for _, c := range cats {
			if !c.frame.MatchString(f) {
				continue
			}
			if c.within == nil {
				return c.name
			}
			for _, outer := range frames[i+1:] {
				if c.within.MatchString(outer) {
					return c.name
				}
			}
		}
	}
	return ""
}

// parsePprofDuration reads a sample value as pprof prints it ("10ms",
// "1.20s", "2.50mins").
func parsePprofDuration(s string) (time.Duration, error) {
	units := []struct {
		suffix string
		scale  float64
	}{
		{"mins", float64(time.Minute)}, {"hrs", float64(time.Hour)},
		{"ns", 1}, {"us", float64(time.Microsecond)}, {"µs", float64(time.Microsecond)},
		{"ms", float64(time.Millisecond)}, {"s", float64(time.Second)},
	}
	for _, u := range units {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, fmt.Errorf("fold: sample value %q: %w", s, err)
			}
			return time.Duration(v * u.scale), nil
		}
	}
	return 0, fmt.Errorf("fold: sample value %q has no known unit", s)
}
