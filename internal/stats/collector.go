package stats

import (
	"fmt"
	"sort"
)

// Collector accumulates a full distribution: the Welford moments of
// Sample plus every raw observation, so exact quantiles, histograms and
// population splits can be computed after the run. The paper's figures
// are distributions in disguise — the crash and suspicion scenarios
// split into early- and late-latency populations that a mean with a 95%
// confidence interval cannot show — and Collector is the carrier that
// lets every experiment report that shape.
//
// Collectors are mergeable: Merge appends the other collector's
// observations in their original order, so merging per-replication
// collectors in canonical replication order reproduces the serial
// accumulation bit for bit regardless of which worker ran which
// replication. The zero value is an empty collector ready for use.
//
// Empty-collector contract: N is 0, Mean and every quantile are NaN,
// Merge with an empty collector (in either direction) is exact — the
// same contract as the underlying Sample.
type Collector struct {
	sample Sample
	values []float64
}

// Add records one observation.
func (c *Collector) Add(x float64) {
	c.sample.Add(x)
	c.values = append(c.values, x)
}

// Merge appends another collector's observations, in their original
// order, and merges the moment accumulators (parallel Welford merge).
// Merging an empty collector is a no-op; merging into an empty collector
// copies o exactly.
func (c *Collector) Merge(o *Collector) {
	if o.N() == 0 {
		return
	}
	c.sample.AddSample(o.sample)
	c.values = append(c.values, o.values...)
}

// N returns the number of observations.
func (c Collector) N() int { return c.sample.N() }

// Mean returns the mean observation, or NaN when empty.
func (c Collector) Mean() float64 { return c.sample.Mean() }

// Sample returns a copy of the Welford accumulator over the collected
// observations.
func (c Collector) Sample() Sample { return c.sample }

// Summarize snapshots mean, deviation, CI95 and extrema.
func (c Collector) Summarize() Summary { return c.sample.Summarize() }

// Values returns the observations in insertion order. The slice is
// freshly allocated.
func (c Collector) Values() []float64 {
	out := make([]float64, len(c.values))
	copy(out, c.values)
	return out
}

// Quantile returns the q-quantile (0 <= q <= 1) of the collected
// observations, interpolating between order statistics. Empty
// collectors return NaN.
func (c Collector) Quantile(q float64) float64 {
	return Quantile(c.values, q)
}

// Quantiles snapshots the canonical order statistics of the collection:
// the per-point distribution shape the figures report. An empty
// collector yields N = 0 and NaN everywhere else. The values are
// sorted once for all three quantiles.
func (c Collector) Quantiles() Quantiles {
	sorted := make([]float64, len(c.values))
	copy(sorted, c.values)
	sort.Float64s(sorted)
	return Quantiles{
		N:   c.N(),
		Min: c.sample.Min(),
		P50: quantileSorted(sorted, 0.50),
		P90: quantileSorted(sorted, 0.90),
		P99: quantileSorted(sorted, 0.99),
		Max: c.sample.Max(),
	}
}

// Histogram bins the collected observations into bins equal-width bins
// over [lo, hi); out-of-range observations clamp into the first or last
// bin, as Histogram.Add documents.
func (c Collector) Histogram(lo, hi float64, bins int) *Histogram {
	h := NewHistogram(lo, hi, bins)
	for _, x := range c.values {
		h.Add(x)
	}
	return h
}

// SplitAt partitions the collection at the threshold x: early holds the
// observations strictly below x, late the rest, both in their original
// order. It exposes the paper's early/late latency split — in the crash
// and suspicion scenarios most messages deliver at failure-free latency
// while a second population is delayed by detection or a view change,
// and the two populations are only visible once the mean is taken apart.
func (c Collector) SplitAt(x float64) (early, late Collector) {
	for _, v := range c.values {
		if v < x {
			early.Add(v)
		} else {
			late.Add(v)
		}
	}
	return early, late
}

// Quantiles is a value snapshot of a distribution's order statistics,
// convenient for reporting: observation count, extrema and the P50, P90
// and P99 latency quantiles the extended figures plot. The zero count
// carries NaN in every statistic.
type Quantiles struct {
	N                       int
	Min, P50, P90, P99, Max float64
}

// String formats the snapshot as "p50/p90/p99 (n=...)".
func (q Quantiles) String() string {
	if q.N == 0 {
		return "empty"
	}
	return fmt.Sprintf("%.3f/%.3f/%.3f (n=%d)", q.P50, q.P90, q.P99, q.N)
}
