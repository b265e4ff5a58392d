package metric

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// refHistogram is the map-and-sort histogram the dense bucket array
// replaced, kept as the oracle: counts keyed by bucket lower bound,
// buckets found with shift loops, and every walk over the sorted keys.
type refHistogram struct {
	counts map[uint64]uint64
	n      uint64
	sum    uint64
	min    uint64
	max    uint64
}

func newRefHistogram() *refHistogram {
	return &refHistogram{counts: make(map[uint64]uint64), min: math.MaxUint64}
}

func refBucket(v uint64) uint64 {
	if v < 64 {
		return v
	}
	shift := uint(0)
	for v>>shift >= 128 {
		shift++
	}
	return (v >> shift) << shift
}

func refBucketEnd(b uint64) uint64 {
	if b < 64 {
		return b + 1
	}
	shift := uint(0)
	for b>>shift >= 128 {
		shift++
	}
	return b + 1<<shift
}

func (h *refHistogram) Observe(v uint64) {
	h.counts[refBucket(v)]++
	h.n++
	h.sum += v
	h.min = min(h.min, v)
	h.max = max(h.max, v)
}

func (h *refHistogram) Min() uint64 {
	if h.n == 0 {
		return 0
	}
	return h.min
}

func (h *refHistogram) keys() []uint64 {
	keys := make([]uint64, 0, len(h.counts))
	for k := range h.counts {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func (h *refHistogram) Percentile(p float64) uint64 {
	if h.n == 0 {
		return 0
	}
	p = min(max(p, 0), 1)
	rank := max(uint64(math.Ceil(p*float64(h.n))), 1)
	keys := h.keys()
	var cum uint64
	for _, k := range keys {
		cum += h.counts[k]
		if cum >= rank {
			return k
		}
	}
	return keys[len(keys)-1]
}

func (h *refHistogram) CDF() []CDFPoint {
	keys := h.keys()
	out := make([]CDFPoint, 0, len(keys))
	var cum uint64
	for _, k := range keys {
		cum += h.counts[k]
		out = append(out, CDFPoint{Value: k, Fraction: float64(cum) / float64(h.n)})
	}
	return out
}

func (h *refHistogram) FractionAtOrBelow(v uint64) float64 {
	if h.n == 0 {
		return 0
	}
	var cum uint64
	for k, c := range h.counts {
		if refBucketEnd(k)-1 <= v {
			cum += c
		}
	}
	return float64(cum) / float64(h.n)
}

func (h *refHistogram) Reset() {
	h.counts = make(map[uint64]uint64)
	h.n, h.sum, h.max = 0, 0, 0
	h.min = math.MaxUint64
}

// edgeValues are the bucket-layout edges: both ends of the exact and
// first logarithmic regions and every power of two with its neighbours.
func edgeValues() []uint64 {
	vs := []uint64{0, 1, 63, 64, 65, 127, 128, 129, math.MaxUint64 - 1, math.MaxUint64}
	for k := 1; k < 64; k++ {
		p := uint64(1) << k
		vs = append(vs, p-1, p, p+1)
	}
	return vs
}

// randomValues spreads n samples over every decade: a uniform 64-bit
// value shifted right by a uniform amount.
func randomValues(r *rand.Rand, n int) []uint64 {
	vs := make([]uint64, n)
	for i := range vs {
		vs[i] = r.Uint64() >> r.Intn(64)
	}
	return vs
}

// allBoundaries lists every bucket's lower bound, in order.
func allBoundaries() []uint64 {
	var bs []uint64
	for i := 0; i < 3776; i++ {
		bs = append(bs, lowerBound(i))
	}
	return bs
}

func checkAgainstRef(t *testing.T, name string, h *Histogram, ref *refHistogram) {
	t.Helper()
	if h.Count() != ref.n || h.Sum() != ref.sum || h.Min() != ref.Min() || h.Max() != ref.max {
		t.Fatalf("%s: count/sum/min/max = %d/%d/%d/%d, reference %d/%d/%d/%d", name,
			h.Count(), h.Sum(), h.Min(), h.Max(), ref.n, ref.sum, ref.Min(), ref.max)
	}
	qs := []float64{-0.5, 0, 1e-9, 0.001, 0.999, 0.9999, 1 - 1e-12, 1, 1.5}
	for q := 0.0; q <= 1; q += 0.01 {
		qs = append(qs, q)
	}
	for _, q := range qs {
		if got, want := h.Percentile(q), ref.Percentile(q); got != want {
			t.Fatalf("%s: Percentile(%v) = %d, reference %d", name, q, got, want)
		}
	}
	if got, want := h.CDF(), ref.CDF(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: CDF has %d points, reference %d (or values differ)", name, len(got), len(want))
	}
	for _, b := range allBoundaries() {
		for _, v := range []uint64{b - 1, b, b + 1, refBucketEnd(b) - 1} {
			if got, want := h.FractionAtOrBelow(v), ref.FractionAtOrBelow(v); got != want {
				t.Fatalf("%s: FractionAtOrBelow(%d) = %v, reference %v", name, v, got, want)
			}
		}
	}
}

// TestHistogramMatchesReference feeds the dense histogram and the
// map-and-sort reference the same samples and requires every query to
// agree exactly, before and after Reset.
func TestHistogramMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	sets := map[string][]uint64{
		"empty":  nil,
		"one":    {1001},
		"top":    {math.MaxUint64},
		"edges":  edgeValues(),
		"random": randomValues(r, 1000),
		"mixed":  append(edgeValues(), randomValues(r, 500)...),
		"narrow": {130, 131, 131, 132, 1000, 1007, 1008},
	}
	for _, name := range []string{"empty", "one", "top", "edges", "random", "mixed", "narrow"} {
		h, ref := NewHistogram(), newRefHistogram()
		for _, v := range sets[name] {
			h.Observe(v)
			ref.Observe(v)
		}
		checkAgainstRef(t, name, h, ref)

		h.Reset()
		ref.Reset()
		checkAgainstRef(t, name+" after Reset", h, ref)
		for _, v := range randomValues(r, 200) {
			h.Observe(v)
			ref.Observe(v)
		}
		checkAgainstRef(t, name+" refilled", h, ref)
	}
}

// The bits.Len64 bucket functions agree with the shift loops they
// replaced, and bucket numbers round-trip through lowerBound.
func TestBucketMatchesReference(t *testing.T) {
	vs := append(edgeValues(), randomValues(rand.New(rand.NewSource(8)), 20000)...)
	vs = append(vs, allBoundaries()...)
	for _, v := range vs {
		if got, want := bucket(v), refBucket(v); got != want {
			t.Fatalf("bucket(%d) = %d, reference %d", v, got, want)
		}
		b := bucket(v)
		if got, want := bucketEnd(b), refBucketEnd(b); got != want {
			t.Fatalf("bucketEnd(%d) = %d, reference %d", b, got, want)
		}
		if lowerBound(index(v)) != b {
			t.Fatalf("lowerBound(index(%d)) = %d, want bucket %d", v, lowerBound(index(v)), b)
		}
	}
	if i := index(math.MaxUint64); i != 3775 {
		t.Fatalf("index(MaxUint64) = %d, want 3775", i)
	}
	if i := index(1_000_000_000); i != 1591 {
		t.Fatalf("index(1 ms in ticks) = %d, want 1591", i)
	}
	for i := 1; i < 3776; i++ {
		if lowerBound(i) <= lowerBound(i-1) {
			t.Fatalf("bucket %d's lower bound %d is not above bucket %d's %d", i, lowerBound(i), i-1, lowerBound(i-1))
		}
	}
}

// Once the histogram holds its highest bucket, recording and reading a
// percentile allocate nothing.
func TestHistogramSteadyStateZeroAlloc(t *testing.T) {
	h := NewHistogram()
	h.Observe(math.MaxUint64)
	vs := randomValues(rand.New(rand.NewSource(9)), 1024)
	i := 0
	if avg := testing.AllocsPerRun(1000, func() {
		h.Observe(vs[i%len(vs)])
		i++
		_ = h.Percentile(0.99)
	}); avg != 0 {
		t.Fatalf("Observe+Percentile: %v allocs/op", avg)
	}
}
