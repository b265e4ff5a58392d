// Package metric provides the measurement primitives the PARD experiments
// rely on: latency histograms with percentile queries, CDF export,
// bounded rings and time-series samplers.
package metric

import (
	"fmt"
	"math"
	"slices"
)

// Histogram records non-negative integer samples (latencies in ticks or
// cycles) in hybrid linear/logarithmic buckets, giving bounded memory
// with a relative error of at most 1/64 per bucket — tight enough for
// the paper's p95 tail-latency comparisons.
type Histogram struct {
	counts map[uint64]uint64 // bucket lower bound -> count
	n      uint64
	sum    uint64
	min    uint64
	max    uint64
	// keys caches the sorted bucket set so Percentile is allocation-free
	// in steady state: the telemetry registry scrapes lat percentiles on
	// every tick interval, and the bucket set only grows when a sample
	// lands in a never-seen bucket.
	keys      []uint64
	keysStale bool
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	//pardlint:ignore hotalloc constructor: one allocation per histogram series, at first sight
	return &Histogram{counts: make(map[uint64]uint64), min: math.MaxUint64}
}

// bucket maps a value to its bucket lower bound: exact below 64, then
// 64 sub-buckets per power-of-two decade.
func bucket(v uint64) uint64 {
	if v < 64 {
		return v
	}
	shift := uint(0)
	for v>>shift >= 128 {
		shift++
	}
	return (v >> shift) << shift
}

// bucketEnd returns the exclusive upper bound of the bucket whose lower
// bound is b: b+1 in the exact region, b plus the sub-bucket width above.
func bucketEnd(b uint64) uint64 {
	if b < 64 {
		return b + 1
	}
	shift := uint(0)
	for b>>shift >= 128 {
		shift++
	}
	return b + 1<<shift
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	b := bucket(v)
	c, seen := h.counts[b]
	if !seen {
		h.keysStale = true
	}
	h.counts[b] = c + 1
	h.n++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.n }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() uint64 { return h.sum }

// Mean returns the arithmetic mean, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Min returns the smallest sample, or 0 with no samples.
func (h *Histogram) Min() uint64 {
	if h.n == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest sample.
func (h *Histogram) Max() uint64 { return h.max }

// Percentile returns the value at quantile p in [0,1]. With no samples it
// returns 0. The answer is the lower bound of the bucket containing the
// p-th sample, so it is exact below 64 and within ~1.6% above.
func (h *Histogram) Percentile(p float64) uint64 {
	if h.n == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := uint64(math.Ceil(p * float64(h.n)))
	if rank == 0 {
		rank = 1
	}
	keys := h.sortedBuckets()
	var cum uint64
	for _, k := range keys {
		cum += h.counts[k]
		if cum >= rank {
			return k
		}
	}
	// Unreachable when counts and n agree (rank <= n and cum reaches n at
	// the last key); answer in bucket terms regardless, matching the
	// method's contract of returning a bucket lower bound.
	if len(keys) > 0 {
		return keys[len(keys)-1]
	}
	return 0
}

func (h *Histogram) sortedBuckets() []uint64 {
	if !h.keysStale && len(h.keys) == len(h.counts) {
		return h.keys
	}
	h.keys = h.keys[:0]
	for k := range h.counts {
		h.keys = append(h.keys, k)
	}
	slices.Sort(h.keys)
	h.keysStale = false
	return h.keys
}

// CDFPoint is one (value, cumulative fraction) pair.
type CDFPoint struct {
	Value    uint64
	Fraction float64
}

// CDF exports the cumulative distribution, one point per occupied bucket.
func (h *Histogram) CDF() []CDFPoint {
	keys := h.sortedBuckets()
	out := make([]CDFPoint, 0, len(keys))
	var cum uint64
	for _, k := range keys {
		cum += h.counts[k]
		out = append(out, CDFPoint{Value: k, Fraction: float64(cum) / float64(h.n)})
	}
	return out
}

// FractionAtOrBelow returns P(X <= v), counting a bucket only when its
// whole range lies at or below v. A partially covered bucket contributes
// nothing: samples recorded above v must never be counted, and bucketed
// storage cannot split them out. The result therefore agrees with CDF():
// FractionAtOrBelow at a bucket's last value equals that bucket's CDF
// fraction, and in the exact region (v < 64) it is exact.
func (h *Histogram) FractionAtOrBelow(v uint64) float64 {
	if h.n == 0 {
		return 0
	}
	var cum uint64
	// Summation over the bucket map is order-independent.
	for k, c := range h.counts {
		if bucketEnd(k)-1 <= v {
			cum += c
		}
	}
	return float64(cum) / float64(h.n)
}

// Reset clears the histogram.
func (h *Histogram) Reset() {
	h.counts = make(map[uint64]uint64)
	h.n, h.sum, h.max = 0, 0, 0
	h.min = math.MaxUint64
	h.keys = h.keys[:0]
	h.keysStale = false
}

func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%d p95=%d p99=%d max=%d",
		h.n, h.Mean(), h.Percentile(0.50), h.Percentile(0.95), h.Percentile(0.99), h.max)
}
