package pard

import (
	"fmt"
	"math/rand"
	"testing"
)

// runChunks advances run by total in chunks of chunk(i) for the i-th
// call, the last one cut to land exactly on total.
func runChunks(run func(Tick), total Tick, chunk func(i int) Tick) {
	for done, i := Tick(0), 0; done < total; i++ {
		d := min(chunk(i), total-done)
		run(d)
		done += d
	}
}

// TestClusterRunSplitInvariance: splitting a run into shorter Run calls
// changes nothing. The reference cluster's digest after 1 ms is
// byte-identical at 1, 2 and 4 shards whether the millisecond runs in
// one call, two halves, 333 µs chunks or a thousand 1 µs calls. Each
// Run boundary is where the engine records the ticker polls it skipped
// (DESIGN.md §17) and where the shard runtime closes its windows.
func TestClusterRunSplitInvariance(t *testing.T) {
	want := clusterDigest(t, 1, 1)
	for _, shards := range []int{1, 2, 4} {
		for _, chunk := range []Tick{equivRun, equivRun / 2, 333 * Microsecond, Microsecond} {
			t.Run(fmt.Sprintf("shards%d/%v", shards, chunk), func(t *testing.T) {
				c := refCluster(t, shards, shards)
				runChunks(c.Run, equivRun, func(int) Tick { return chunk })
				if got := c.Digest(); got != want {
					t.Errorf("digest differs from one 1 ms run at 1 shard: %s", firstDiff(want, got))
				}
			})
		}
	}
}

// TestSystemRunSplitInvariance: one Figure 8 server run for 1 ms in one
// call and in about a thousand uneven calls of 500-1499 ns, which land
// on and between the DRAM ticker's 1.25 ns edges, ends in the same
// state.
func TestSystemRunSplitInvariance(t *testing.T) {
	run := func(chunk func(int) Tick) string {
		s := NewSystem(goldenConfig())
		goldenServer(t, s, 42)
		runChunks(s.Run, Millisecond, chunk)
		return StateDigest([]*System{s})
	}
	want := run(func(int) Tick { return Millisecond })
	r := rand.New(rand.NewSource(1))
	got := run(func(int) Tick { return Tick(500+r.Intn(1000)) * Nanosecond })
	if got != want {
		t.Fatalf("uneven run split diverged from one 1 ms run: %s", firstDiff(want, got))
	}
}
