package metric

import (
	"testing"

	"repro/internal/sim"
)

func TestSeriesRecordAndStats(t *testing.T) {
	s := NewSeries("bw")
	for i := 0; i < 10; i++ {
		s.Record(sim.Tick(i*100), float64(i))
	}
	if s.Len() != 10 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Last() != 9 {
		t.Fatalf("Last = %f", s.Last())
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
	s := NewSeries("x")
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
	s := NewSeries("x")
	if s.Last() != 0 || s.Mean() != 0 || s.MeanAfter(0) != 0 || s.Sparkline(10) != "" {
		t.Fatal("empty series not zeroed")
	}
}

func TestSparklineWidth(t *testing.T) {
	s := NewSeries("x")
	for i := 0; i < 100; i++ {
		s.Record(sim.Tick(i), float64(i%10))
	}
	sp := s.Sparkline(20)
	if n := len([]rune(sp)); n != 20 {
		t.Fatalf("sparkline width = %d, want 20", n)
	}
	// Flat-zero series renders lowest glyph, no panic.
	z := NewSeries("z")
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
