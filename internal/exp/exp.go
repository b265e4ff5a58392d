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

// ratio guards divide-by-zero in report math.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
