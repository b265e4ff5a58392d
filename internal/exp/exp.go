// Package exp contains one harness per table and figure of the paper's
// evaluation (§7), plus the ablation studies called out in DESIGN.md.
// Each harness builds the systems it needs, runs the workload mix, and
// returns a structured result with a Print method producing the same
// rows/series the paper reports. cmd/pardbench drives these harnesses.
package exp

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/metric"
	"repro/internal/sim"
)

// Scale selects experiment duration: Quick keeps every harness inside a
// few seconds of wall time for tests and benches; Full stretches the
// simulated windows for the published numbers in EXPERIMENTS.md.
type Scale int

// Scales.
const (
	Quick Scale = iota
	Full
)

// ParseScale maps a -scale flag value.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "quick", "":
		return Quick, nil
	case "full":
		return Full, nil
	}
	return 0, fmt.Errorf("exp: unknown scale %q (want quick or full)", s)
}

// Printable is implemented by every experiment result.
type Printable interface {
	Print(w io.Writer)
}

// newTable returns a tabwriter configured for report output.
func newTable(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
}

// timelineSamples is how many samples a timeline figure's sampler
// records over a run of length total: one every period, up to and
// including total. The figures size their series to it, so no sample
// is displaced.
func timelineSamples(total, every sim.Tick) int { return int(total / every) }

// mustKeepAll panics if a figure series displaced a sample: each is
// sized to hold its whole run, so a drop means the sizing is wrong and
// the figure would summarize a truncated timeline.
func mustKeepAll(series ...*metric.Series) {
	for _, s := range series {
		if s.Dropped() > 0 {
			panic(fmt.Sprintf("exp: series %s dropped %d samples", s.Name(), s.Dropped()))
		}
	}
}

// ratio guards divide-by-zero in report math.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
