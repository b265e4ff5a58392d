package main

// The -shards sweep: run the switchless server ring of one-server racks
// (the cluster TestParallelRackEquivalence and BenchmarkRackParallel*
// drive) at each requested shard count, verify every run's state digest
// is identical, and record the wall-clock scaling curve in BENCH.json. The
// measurement itself lives in internal/bench so cmd/benchgate can
// replay it when enforcing the multi-core speedup floor; this file
// parses the flag and renders the stdout block. Stdout carries the
// deterministic lines — digests, window and mailbox counts — plus one
// deliberately environment-dependent fact: cpus=N and per-point
// speedup_unreliable markers, which exist precisely to flag when the
// timing numbers in BENCH.json cannot be trusted (more shards than
// CPUs means the workers time-sliced one another). Timing itself still
// goes exclusively to the JSON file.

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/exp"
)

// parseShards parses the -shards flag ("1,2,4").
func parseShards(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("pardbench: bad -shards entry %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// runRackSweep executes the sweep and renders its stdout block.
func runRackSweep(shardCounts []int, scale exp.Scale) (*bench.RackSweep, string, error) {
	sweep, err := bench.MeasureRackSweep(shardCounts, scale)
	if err != nil {
		return nil, "", fmt.Errorf("pardbench: %w", err)
	}
	var out strings.Builder
	fmt.Fprintf(&out, "rack scaling: %d servers, ring topology, %gms simulated, cpus=%d\n",
		sweep.Servers, sweep.SimulatedMs, sweep.CPUs)
	for _, p := range sweep.Points {
		fmt.Fprintf(&out, "shards=%d digest=%s windows=%d idle_skips=%d cross_sends=%d",
			p.Shards, sweep.Digest, p.Windows, p.IdleSkips, p.CrossSends)
		if p.SpeedupUnreliable {
			fmt.Fprintf(&out, " speedup_unreliable(shards=%d>cpus=%d)", p.Shards, sweep.CPUs)
		}
		fmt.Fprintln(&out)
	}
	return sweep, out.String(), nil
}
