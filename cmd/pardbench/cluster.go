package main

// The -cluster smoke: build the reference 4-rack × 2-server leaf/spine
// cluster (bench.RefCluster) at shard counts 1, 2 and 4 (plus a repeat
// run), drive the cross-rack workload, and require every run's digest
// — per-server state plus every switch's tables and counters — to be
// byte-identical. Stdout carries only deterministic lines (digests,
// frame counts), the same contract as the -shards rack sweep.

import (
	"fmt"
	"hash/fnv"
	"strings"

	"repro/internal/bench"
	"repro/internal/cluster"
)

// clusterSmokeShards are the shard counts the smoke sweeps; the last
// entry runs twice so the smoke also catches run-to-run nondeterminism
// at a fixed shard count.
var clusterSmokeShards = []int{1, 2, 4, 4}

// runClusterSmoke executes the determinism smoke and renders its
// stdout block; a digest mismatch is a determinism regression.
func runClusterSmoke() (string, error) {
	var out strings.Builder
	ref := cluster.Ref()
	fmt.Fprintf(&out, "cluster smoke: %d racks x %d servers, leaf/spine fabric, %v simulated\n",
		ref.Racks, ref.ServersPerRack, bench.RefClusterRun)

	want := ""
	for _, shards := range clusterSmokeShards {
		c, err := bench.RefCluster(shards)
		if err != nil {
			return "", fmt.Errorf("pardbench: %w", err)
		}
		c.Run(bench.RefClusterRun)
		if c.CrossRackFrames() == 0 {
			return "", fmt.Errorf("pardbench: cluster smoke saw no cross-rack frames; the workload is vacuous")
		}

		h := fnv.New64a()
		h.Write([]byte(c.Digest()))
		digest := fmt.Sprintf("%#016x", h.Sum64())
		if want == "" {
			want = digest
		} else if digest != want {
			return "", fmt.Errorf(
				"pardbench: determinism regression: cluster shards=%d digest %s != %s", shards, digest, want)
		}
		fmt.Fprintf(&out, "shards=%d digest=%s cross_rack_frames=%d spines=%d leaves=%d\n",
			shards, digest, c.CrossRackFrames(), len(c.SpineSwitches), len(c.Leaves))
	}
	return out.String(), nil
}
