package metric

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// Sample is one time-series observation.
type Sample struct {
	When  sim.Tick
	Value float64
}

// Series is an append-only time series, used for the paper's timeline
// figures (LLC occupancy, memory bandwidth, miss rate, disk shares).
type Series struct {
	Name    string
	Samples []Sample
}

// NewSeries returns a named empty series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Record appends a sample.
func (s *Series) Record(when sim.Tick, v float64) {
	s.Samples = append(s.Samples, Sample{When: when, Value: v})
}

// Len returns the sample count.
func (s *Series) Len() int { return len(s.Samples) }

// Last returns the most recent sample value, or 0 if empty.
func (s *Series) Last() float64 {
	if len(s.Samples) == 0 {
		return 0
	}
	return s.Samples[len(s.Samples)-1].Value
}

// Mean returns the average of all sample values.
func (s *Series) Mean() float64 {
	if len(s.Samples) == 0 {
		return 0
	}
	var sum float64
	for _, p := range s.Samples {
		sum += p.Value
	}
	return sum / float64(len(s.Samples))
}

// MeanAfter averages samples at or after t.
func (s *Series) MeanAfter(t sim.Tick) float64 {
	var sum float64
	var n int
	for _, p := range s.Samples {
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

// MeanBetween averages samples with lo <= When < hi.
func (s *Series) MeanBetween(lo, hi sim.Tick) float64 {
	var sum float64
	var n int
	for _, p := range s.Samples {
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

// MaxBetween returns the largest sample value with lo <= When < hi.
func (s *Series) MaxBetween(lo, hi sim.Tick) float64 {
	var m float64
	for _, p := range s.Samples {
		if p.When >= lo && p.When < hi && p.Value > m {
			m = p.Value
		}
	}
	return m
}

// Max returns the largest sample value.
func (s *Series) Max() float64 {
	var m float64
	for _, p := range s.Samples {
		if p.Value > m {
			m = p.Value
		}
	}
	return m
}

// Sparkline renders the series as a terminal sparkline with the given
// width, for the report output of the timeline figures.
func (s *Series) Sparkline(width int) string {
	if len(s.Samples) == 0 || width <= 0 {
		return ""
	}
	glyphs := []rune("▁▂▃▄▅▆▇█")
	max := s.Max()
	if max == 0 {
		max = 1
	}
	var b strings.Builder
	step := float64(len(s.Samples)) / float64(width)
	if step < 1 {
		step = 1
		width = len(s.Samples)
	}
	for i := 0; i < width; i++ {
		lo := int(float64(i) * step)
		hi := int(float64(i+1) * step)
		if hi > len(s.Samples) {
			hi = len(s.Samples)
		}
		if lo >= hi {
			break
		}
		var sum float64
		for _, p := range s.Samples[lo:hi] {
			sum += p.Value
		}
		avg := sum / float64(hi-lo)
		idx := int(avg / max * float64(len(glyphs)-1))
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

// FormatPerMil renders a 0.1%-unit value as a percentage string.
func FormatPerMil(v uint64) string {
	return fmt.Sprintf("%d.%d%%", v/10, v%10)
}
