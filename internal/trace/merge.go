package trace

import "sort"

// MergeTraces combines several recorders' archived traces — one
// recorder per cluster server — into a single deterministically
// ordered timeline: ascending issue time, then end time, then packet
// id, with argument order breaking residual ties (the sort is stable
// over the concatenation). The merged view is identical however the
// servers were distributed over engines; the sharded-ring equivalence
// suite checks exactly that. Nil recorders are skipped.
func MergeTraces(recorders ...*Recorder) []PacketTrace {
	var out []PacketTrace
	for _, r := range recorders {
		out = append(out, r.Traces()...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.Issue != b.Issue {
			return a.Issue < b.Issue
		}
		if a.End != b.End {
			return a.End < b.End
		}
		return a.ID < b.ID
	})
	return out
}
