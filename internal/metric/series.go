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

// Series is a named time series: a fixed-capacity ring of samples. It
// is the one series type behind the telemetry registry, the timeline
// figures (LLC occupancy, memory bandwidth, miss rate, disk shares) and
// the Perfetto counter tracks. When full, recording displaces the
// oldest sample and counts it in Dropped; the readers below see the
// retained samples, oldest first.
type Series struct {
	name string
	Ring[Sample]
}

// NewSeries returns an empty series holding at most capacity samples.
func NewSeries(name string, capacity int) *Series {
	//pardlint:ignore hotalloc constructor: one series per registered name, at registration or first sight of a DS-id
	return &Series{name: name, Ring: *NewRing[Sample](capacity)}
}

// Name returns the series name.
func (s *Series) Name() string { return s.name }

// Record appends a sample. It never allocates, and it stays within the
// compiler's inlining budget so the telemetry scrape loop carries no
// call per sample: it writes through Next rather than building a Push
// argument.
func (s *Series) Record(when sim.Tick, v float64) {
	*s.Next() = Sample{When: when, Value: v}
}

// endOfTime bounds the open-ended readers: no sample is stamped at the
// last representable tick.
const endOfTime = ^sim.Tick(0)

// Mean returns the average of all sample values, or 0 if empty.
func (s *Series) Mean() float64 { return s.MeanBetween(0, endOfTime) }

// MeanAfter averages samples at or after t.
func (s *Series) MeanAfter(t sim.Tick) float64 { return s.MeanBetween(t, endOfTime) }

// MeanBetween averages samples with lo <= When < hi, or returns 0 when
// there are none.
func (s *Series) MeanBetween(lo, hi sim.Tick) float64 {
	var sum float64
	var n int
	for i := 0; i < s.Len(); i++ {
		if p := s.At(i); p.When >= lo && p.When < hi {
			sum += p.Value
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MaxBetween returns the largest sample value with lo <= When < hi, or
// 0 when none is positive.
func (s *Series) MaxBetween(lo, hi sim.Tick) float64 {
	var m float64
	for i := 0; i < s.Len(); i++ {
		if p := s.At(i); p.When >= lo && p.When < hi && p.Value > m {
			m = p.Value
		}
	}
	return m
}

// Max returns the largest sample value.
func (s *Series) Max() float64 { return s.MaxBetween(0, endOfTime) }

// Sparkline renders the series as a terminal sparkline with the given
// width, each glyph the mean of its share of the samples scaled to the
// maximum, for the report output of the timeline figures.
func (s *Series) Sparkline(width int) string {
	if s.Len() == 0 || width <= 0 {
		return ""
	}
	glyphs := []rune("▁▂▃▄▅▆▇█")
	max := s.Max()
	if max == 0 {
		max = 1
	}
	var b strings.Builder
	step := float64(s.Len()) / float64(width)
	if step < 1 {
		step = 1
		width = s.Len()
	}
	for i := 0; i < width; i++ {
		lo := int(float64(i) * step)
		hi := int(float64(i+1) * step)
		if hi > s.Len() {
			hi = s.Len()
		}
		if lo >= hi {
			break
		}
		var sum float64
		for k := lo; k < hi; k++ {
			sum += s.At(k).Value
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
