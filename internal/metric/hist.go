// Package metric provides the measurement primitives the PARD experiments
// rely on: latency histograms with percentile queries, CDF export,
// bounded rings and the named time series kept in them.
package metric

import (
	"fmt"
	"math"
	"math/bits"
)

// Histogram records non-negative integer samples (latencies in ticks or
// cycles) in hybrid linear/logarithmic buckets, giving bounded memory
// with a relative error of at most 1/64 per bucket — tight enough for
// the paper's p95 tail-latency comparisons.
//
// Buckets are numbered in value order (see index), and counts is
// indexed by that number, so recording a sample and walking the
// distribution never hash or sort. counts grows only to the highest
// bucket observed: at most 3776 entries, for values near 2^64; a 1 ms
// latency in ticks lands in bucket 1591. decades keeps a running total
// per 64-bucket decade, so a percentile query skips whole decades.
type Histogram struct {
	counts  []uint64 // bucket number -> samples
	decades []uint64 // bucket number / 64 -> samples
	n       uint64
	sum     uint64
	min     uint64
	max     uint64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	//pardlint:ignore hotalloc constructor: one allocation per histogram series, at first sight
	return &Histogram{min: math.MaxUint64}
}

// bucket maps a value to its bucket lower bound: exact below 64, then
// 64 sub-buckets per power-of-two decade.
func bucket(v uint64) uint64 { return lowerBound(index(v)) }

// bucketEnd returns the exclusive upper bound of the bucket whose lower
// bound is b: b+1 in the exact region, b plus the sub-bucket width
// above (0, wrapped, for the top bucket).
func bucketEnd(b uint64) uint64 { return lowerBound(index(b) + 1) }

// index returns the number of v's bucket: v itself below 64, then
// 64·(s+1) + (v>>s) − 64 with s = bits.Len64(v) − 7, so each
// power-of-two decade takes the next 64 numbers.
func index(v uint64) int {
	if v < 64 {
		return int(v)
	}
	s := bits.Len64(v) - 7
	return 64*s + int(v>>uint(s))
}

// lowerBound is index's inverse: the lower bound of bucket i.
func lowerBound(i int) uint64 {
	if i < 128 {
		return uint64(i)
	}
	return uint64(64+i&63) << uint(i>>6-1)
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	i := index(v)
	if i >= len(h.counts) {
		//pardlint:ignore hotalloc first sample above the highest bucket so far: at most 3776 buckets per histogram
		h.counts = append(h.counts, make([]uint64, i+1-len(h.counts))...)
		if d := i>>6 + 1; d > len(h.decades) {
			//pardlint:ignore hotalloc first sample in a higher decade: at most 59 per histogram
			h.decades = append(h.decades, make([]uint64, d-len(h.decades))...)
		}
	}
	h.counts[i]++
	h.decades[i>>6]++
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
	var cum uint64
	for d, c := range h.decades {
		if cum+c < rank {
			cum += c
			continue
		}
		for i := d << 6; i < len(h.counts); i++ {
			cum += h.counts[i]
			if cum >= rank {
				return lowerBound(i)
			}
		}
	}
	// Unreachable while rank <= n (float rounding of p·n can exceed n
	// only for n past 2^53); answer in bucket terms regardless, with
	// the highest occupied bucket.
	return bucket(h.max)
}

// CDFPoint is one (value, cumulative fraction) pair.
type CDFPoint struct {
	Value    uint64
	Fraction float64
}

// CDF exports the cumulative distribution, one point per occupied bucket.
func (h *Histogram) CDF() []CDFPoint {
	occupied := 0
	for _, c := range h.counts {
		if c != 0 {
			occupied++
		}
	}
	out := make([]CDFPoint, 0, occupied)
	var cum uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += c
		out = append(out, CDFPoint{Value: lowerBound(i), Fraction: float64(cum) / float64(h.n)})
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
	// Buckets below v's lie wholly at or below v; v's own bucket counts
	// only when v is its last value.
	end := index(v)
	if bucketEnd(bucket(v))-1 == v {
		end++
	}
	end = min(end, len(h.counts))
	var cum uint64
	d := end >> 6
	for _, c := range h.decades[:d] {
		cum += c
	}
	for _, c := range h.counts[d<<6 : end] {
		cum += c
	}
	return float64(cum) / float64(h.n)
}

// Reset clears the histogram, keeping its bucket arrays for reuse.
func (h *Histogram) Reset() {
	clear(h.counts)
	clear(h.decades)
	h.n, h.sum, h.max = 0, 0, 0
	h.min = math.MaxUint64
}

func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%d p95=%d p99=%d max=%d",
		h.n, h.Mean(), h.Percentile(0.50), h.Percentile(0.95), h.Percentile(0.99), h.max)
}
