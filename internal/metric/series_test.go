package metric

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// The slice references below are the readers as they were over an
// append-only sample slice; a series must answer each of them over the
// samples its ring retains, oldest first.

func refMeanBetween(ps []Sample, lo, hi sim.Tick) float64 {
	var sum float64
	var n int
	for _, p := range ps {
		if p.When >= lo && p.When < hi {
			sum += p.Value
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func refMean(ps []Sample) float64 {
	if len(ps) == 0 {
		return 0
	}
	var sum float64
	for _, p := range ps {
		sum += p.Value
	}
	return sum / float64(len(ps))
}

func refMeanAfter(ps []Sample, t sim.Tick) float64 {
	var sum float64
	var n int
	for _, p := range ps {
		if p.When >= t {
			sum += p.Value
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func refMaxBetween(ps []Sample, lo, hi sim.Tick) float64 {
	var m float64
	for _, p := range ps {
		if p.When >= lo && p.When < hi && p.Value > m {
			m = p.Value
		}
	}
	return m
}

func refMax(ps []Sample) float64 {
	var m float64
	for _, p := range ps {
		if p.Value > m {
			m = p.Value
		}
	}
	return m
}

func refSparkline(ps []Sample, width int) string {
	if len(ps) == 0 || width <= 0 {
		return ""
	}
	glyphs := []rune("▁▂▃▄▅▆▇█")
	max := refMax(ps)
	if max == 0 {
		max = 1
	}
	var b strings.Builder
	step := float64(len(ps)) / float64(width)
	if step < 1 {
		step = 1
		width = len(ps)
	}
	for i := 0; i < width; i++ {
		lo := int(float64(i) * step)
		hi := int(float64(i+1) * step)
		if hi > len(ps) {
			hi = len(ps)
		}
		if lo >= hi {
			break
		}
		var sum float64
		for _, p := range ps[lo:hi] {
			sum += p.Value
		}
		idx := int(sum / float64(hi-lo) / max * float64(len(glyphs)-1))
		if idx < 0 {
			idx = 0
		}
		if idx >= len(glyphs) {
			idx = len(glyphs) - 1
		}
		b.WriteRune(glyphs[idx])
	}
	return b.String()
}

// TestSeriesReadersOverWrappedRing records past the capacity, so the
// ring's oldest sample sits mid-buffer, and checks every reader against
// its slice reference over the retained samples.
func TestSeriesReadersOverWrappedRing(t *testing.T) {
	const capacity = 37
	s := NewSeries("bw", capacity)
	var all []Sample
	for i := 0; i < 100; i++ {
		p := Sample{When: sim.Tick(i * 100), Value: float64((i*7)%23) + 0.25*float64(i%3)}
		s.Record(p.When, p.Value)
		all = append(all, p)
	}
	kept := all[len(all)-capacity:]
	if s.Name() != "bw" || s.Len() != capacity || s.Dropped() != uint64(len(all)-capacity) {
		t.Fatalf("name=%q len=%d dropped=%d", s.Name(), s.Len(), s.Dropped())
	}
	for i, p := range kept {
		if s.At(i) != p {
			t.Fatalf("At(%d) = %+v, want %+v", i, s.At(i), p)
		}
	}
	if got, want := s.Mean(), refMean(kept); got != want {
		t.Fatalf("Mean = %v, want %v", got, want)
	}
	if got, want := s.Max(), refMax(kept); got != want {
		t.Fatalf("Max = %v, want %v", got, want)
	}
	for _, tt := range []sim.Tick{0, 5000, 6300, 7050, 9900, 10000} {
		if got, want := s.MeanAfter(tt), refMeanAfter(kept, tt); got != want {
			t.Fatalf("MeanAfter(%d) = %v, want %v", tt, got, want)
		}
	}
	for _, w := range [][2]sim.Tick{{0, 7000}, {6300, 8000}, {7050, 7050}, {8000, 20000}, {9000, 9100}} {
		if got, want := s.MeanBetween(w[0], w[1]), refMeanBetween(kept, w[0], w[1]); got != want {
			t.Fatalf("MeanBetween(%d, %d) = %v, want %v", w[0], w[1], got, want)
		}
		if got, want := s.MaxBetween(w[0], w[1]), refMaxBetween(kept, w[0], w[1]); got != want {
			t.Fatalf("MaxBetween(%d, %d) = %v, want %v", w[0], w[1], got, want)
		}
	}
	for _, width := range []int{1, 5, 10, 36, 37, 60} {
		if got, want := s.Sparkline(width), refSparkline(kept, width); got != want {
			t.Fatalf("Sparkline(%d) = %q, want %q", width, got, want)
		}
	}
}

func TestSeriesRecordAndStats(t *testing.T) {
	s := NewSeries("bw", 16)
	for i := 0; i < 10; i++ {
		s.Record(sim.Tick(i*100), float64(i))
	}
	if s.Len() != 10 {
		t.Fatalf("Len = %d", s.Len())
	}
	if last, _ := s.Last(); last.Value != 9 {
		t.Fatalf("Last = %f", last.Value)
	}
	if s.Mean() != 4.5 {
		t.Fatalf("Mean = %f", s.Mean())
	}
	if s.Max() != 9 {
		t.Fatalf("Max = %f", s.Max())
	}
	if got := s.MeanAfter(500); got != 7 { // samples 5..9
		t.Fatalf("MeanAfter(500) = %f, want 7", got)
	}
	if got := s.MeanBetween(200, 500); got != 3 { // samples 2,3,4
		t.Fatalf("MeanBetween = %f, want 3", got)
	}
}

func TestSeriesMaxBetween(t *testing.T) {
	s := NewSeries("x", 16)
	for i := 0; i < 10; i++ {
		s.Record(sim.Tick(i*100), float64(i%5))
	}
	if got := s.MaxBetween(200, 500); got != 4 { // samples 2,3,4
		t.Fatalf("MaxBetween(200,500) = %f, want 4", got)
	}
	if got := s.MaxBetween(900, 900); got != 0 {
		t.Fatalf("empty window MaxBetween = %f", got)
	}
}

func TestSeriesEmpty(t *testing.T) {
	s := NewSeries("x", 4)
	if _, ok := s.Last(); ok || s.Mean() != 0 || s.MeanAfter(0) != 0 || s.Max() != 0 || s.Sparkline(10) != "" {
		t.Fatal("empty series not zeroed")
	}
}

func TestSparklineWidth(t *testing.T) {
	s := NewSeries("x", 100)
	for i := 0; i < 100; i++ {
		s.Record(sim.Tick(i), float64(i%10))
	}
	sp := s.Sparkline(20)
	if n := len([]rune(sp)); n != 20 {
		t.Fatalf("sparkline width = %d, want 20", n)
	}
	// Flat-zero series renders lowest glyph, no panic.
	z := NewSeries("z", 2)
	z.Record(0, 0)
	z.Record(1, 0)
	if z.Sparkline(5) == "" {
		t.Fatal("flat series produced empty sparkline")
	}
}

func TestFormatPerMil(t *testing.T) {
	if got := FormatPerMil(307); got != "30.7%" {
		t.Fatalf("FormatPerMil = %q", got)
	}
	if got := FormatPerMil(1000); got != "100.0%" {
		t.Fatalf("FormatPerMil = %q", got)
	}
}
