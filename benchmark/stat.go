package main

import (
	"math"
	"sort"
)

// summary is how every timing is reported: the median, the quartiles and
// the sample count, over passes (or over RPCs for latencies).
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize computes the quartiles the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), so that a
// spread computed here matches the one the acceptance driver computes from
// the same values. With one sample all three cut points are that sample.
func summarize(samples []float64) summary {
	n := len(samples)
	if n == 0 {
		return summary{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n == 1 {
		return summary{Median: s[0], Q1: s[0], Q3: s[0], N: 1}
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return summary{Q1: cut(1), Median: cut(2), Q3: cut(3), N: n}
}

func median(samples []float64) float64 { return summarize(samples).Median }

// spread is the inter-quartile distance as a share of the median — the
// run-to-run noise figure a bound is compared against.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

// quietMean is the figure a run reports for a repeated timing: the mean of
// the fastest quarter (at least one) of its samples. The reference host's
// noise is one-sided — a neighbour slows a sample down, nothing speeds one
// up — and comes in bursts shorter than a run, so the fast quarter of many
// short samples estimates the undisturbed time; over ten-second windows it
// moved half as much as their median did (see README, "Why a run reports
// the fast quarter").
func quietMean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	k := max(1, len(s)/4)
	sum := 0.0
	for _, v := range s[:k] {
		sum += v
	}
	return sum / float64(k)
}

// tailPercentiles are the candidates tailPercentile picks from, ascending,
// each with the per-mille share of samples beyond it.
var tailPercentiles = []struct {
	p      float64
	beyond int
}{{50, 500}, {90, 100}, {95, 50}, {99, 10}, {99.9, 1}}

// tailPercentile returns the highest percentile that still has at least
// ten of n samples beyond it (p99 needs 1000 samples, p90 needs 100), or 0
// when even the median has fewer than ten samples above it.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, c := range tailPercentiles {
		if n*c.beyond >= 10*1000 {
			best = c.p
		}
	}
	return best
}

// percentile returns the p-th percentile (nearest rank) of samples.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
