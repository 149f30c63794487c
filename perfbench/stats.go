package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the ten-samples-beyond rule: a percentile is reported
// only when at least this many samples lie above it.
const minBeyond = 10

// pct is one percentile reading of a latency sample.
type pct struct {
	Q      float64 // quantile in (0,1)
	Value  float64
	N      int  // sample count it was read from
	Beyond int  // samples strictly above its rank
	OK     bool // Beyond ≥ minBeyond
}

// percentile reads the q-quantile of xs by nearest rank and applies the
// ten-samples-beyond rule. xs is not modified.
func percentile(xs []float64, q float64) pct {
	p := pct{Q: q, N: len(xs)}
	if len(xs) == 0 {
		return p
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	p.Value = s[rank]
	p.Beyond = len(s) - 1 - rank
	p.OK = p.Beyond >= minBeyond
	return p
}

// tailPercentile returns the highest of p90, p95, p99 and p99.9 that
// still has ten samples beyond it, falling back to the median.
func tailPercentile(xs []float64) pct {
	best := percentile(xs, 0.5)
	for _, q := range []float64{0.9, 0.95, 0.99, 0.999} {
		if p := percentile(xs, q); p.OK {
			best = p
		}
	}
	return best
}

// tailMetric names the tail percentile of a latency sample when it
// reaches beyond p90, with its sample count.
func tailMetric(prefix string, xs []float64) []metric {
	t := tailPercentile(xs)
	if t.Q <= 0.9 {
		return nil
	}
	return []metric{{fmt.Sprintf("%s_p%g_ms", prefix, 100*t.Q), t.Value, "ms"}}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// ratio returns a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
