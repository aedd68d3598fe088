package main

import (
	"fmt"
	"math"
	"runtime/debug"
	"sort"
)

// missed is the latency recorded for a failed, refused or wrong reply: it
// misses every latency limit.
const missed = math.MaxInt64

// samples holds raw latencies in nanoseconds. Percentiles are read from the
// sorted raw values, so they carry no bucketing error at all.
type samples struct {
	v      []int64
	sorted bool
}

func (s *samples) add(ns int64) {
	s.v = append(s.v, ns)
	s.sorted = false
}

func (s *samples) n() int { return len(s.v) }

func (s *samples) sort() {
	if !s.sorted {
		sort.Slice(s.v, func(i, j int) bool { return s.v[i] < s.v[j] })
		s.sorted = true
	}
}

// pct returns the nearest-rank p-quantile (0 < p <= 1) in nanoseconds, and
// how many samples lie beyond it.
func (s *samples) pct(p float64) (int64, int) {
	if len(s.v) == 0 {
		return 0, 0
	}
	s.sort()
	i := int(math.Ceil(p*float64(len(s.v)))) - 1
	if i < 0 {
		i = 0
	}
	return s.v[i], len(s.v) - 1 - i
}

// tailPcts are the candidate tail percentiles, highest last.
var tailPcts = []float64{0.9, 0.99, 0.999, 0.9999}

// tail returns the highest percentile in tailPcts that has at least ten
// samples beyond it (0 when even p90 has fewer).
func (s *samples) tail() float64 {
	best := 0.0
	for _, p := range tailPcts {
		if float64(len(s.v))*(1-p) >= 10 {
			best = p
		}
	}
	return best
}

func pctName(p float64) string {
	switch p {
	case 0.5:
		return "p50"
	case 0.9:
		return "p90"
	case 0.99:
		return "p99"
	case 0.999:
		return "p999"
	case 0.9999:
		return "p9999"
	}
	return fmt.Sprintf("p%g", p*100)
}

// usOf converts a nanosecond latency to microseconds; a missed latency
// stays infinite.
func usOf(ns int64) float64 {
	if ns == missed {
		return math.Inf(1)
	}
	return float64(ns) / 1e3
}

// median returns the median of xs (xs is reordered).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// releaseMemory collects a dropped deployment and returns its pages to the
// OS, so the next set-up does not stack its pool on top of the last one in
// resident memory.
func releaseMemory() { debug.FreeOSMemory() }
