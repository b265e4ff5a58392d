package pard

import (
	"strings"
	"testing"
)

// The equivalence workload: every server runs STREAM on core 0 and
// pumps flow-tagged frames to its ring successor, whose SDN rule steers
// them into the destination LDom. Pump phases and periods differ per
// server so cross-server deliveries never tie with each other at one
// receiver — the residual same-tick tie rule is documented in
// DESIGN.md §11, and the suite's job is to prove the common case is
// byte-identical, not to construct adversarial ties.
const (
	equivRun    = Millisecond
	equivFrames = 20
)

func equivConfig() Config {
	cfg := DefaultConfig()
	cfg.Cores = 2
	cfg.TraceSample = 8 // flight recorder on: trace equivalence is part of the digest
	return cfg
}

// switchless builds a switchless cluster of racks × perRack servers
// over shards shards, without a workload.
func switchless(t *testing.T, cfg Config, racks, perRack, shards, workers int) *Cluster {
	t.Helper()
	c, err := NewCluster(ClusterConfig{
		Racks: racks, ServersPerRack: perRack, Switchless: true,
		Shards: shards, Workers: workers, Server: cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// provisionEquivWorkload installs LDoms, flow rules and pumps.
func provisionEquivWorkload(t *testing.T, c *Cluster) {
	t.Helper()
	if err := ProvisionClusterWorkload(c, equivFrames); err != nil {
		t.Fatal(err)
	}
}

// sequentialRack runs the equivalence workload on one switchless rack
// of n servers: a single engine, ring-linked at the rack latency.
func sequentialRack(t *testing.T, cfg Config, n int) *Cluster {
	t.Helper()
	c := switchless(t, cfg, 1, n, 1, 1)
	provisionEquivWorkload(t, c)
	c.Run(equivRun)
	return c
}

// shardedRing runs the equivalence workload on n switchless one-server
// racks spread over shards shards: the same ring, cut across engines.
func shardedRing(t *testing.T, cfg Config, n, shards, workers int) *Cluster {
	t.Helper()
	c := switchless(t, cfg, n, 1, shards, workers)
	provisionEquivWorkload(t, c)
	c.Run(equivRun)
	return c
}

func sequentialRackDigest(t *testing.T, n int) string {
	t.Helper()
	return StateDigest(sequentialRack(t, equivConfig(), n).Servers)
}

func parallelRackDigest(t *testing.T, n, shards, workers int) (string, *Cluster) {
	t.Helper()
	c := shardedRing(t, equivConfig(), n, shards, workers)
	return StateDigest(c.Servers), c
}

// firstDiff locates the first differing line of two digests, for
// readable failures.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return "line " + al[i] + " != " + bl[i]
		}
	}
	return "length mismatch"
}

// TestParallelRackEquivalence is the tentpole's gate: for rack sizes
// 2/4/8 and shard counts 1/2/4, the sharded run's full state digest —
// control-plane stats trees, PRM counters, trace spans — must be
// byte-identical to the sequential single-engine rack's.
func TestParallelRackEquivalence(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		want := sequentialRackDigest(t, n)
		if !strings.Contains(want, "rx_pkts") {
			t.Fatalf("n=%d: workload produced no NIC traffic", n)
		}
		for _, shards := range []int{1, 2, 4} {
			if shards > n {
				continue
			}
			got, pr := parallelRackDigest(t, n, shards, shards)
			if got != want {
				t.Errorf("n=%d shards=%d digest differs from sequential rack: %s",
					n, shards, firstDiff(want, got))
			}
			if shards > 1 && pr.Group.CrossSends == 0 {
				t.Errorf("n=%d shards=%d: no frames crossed shards", n, shards)
			}
		}
	}
}

// TestParallelRackWorkerInvariance re-runs one sharded configuration
// with different worker-pool sizes (run under -race by `make race`):
// the pool size must never reach simulation state.
func TestParallelRackWorkerInvariance(t *testing.T) {
	ref, _ := parallelRackDigest(t, 4, 4, 1)
	for _, workers := range []int{2, 4} {
		got, _ := parallelRackDigest(t, 4, 4, workers)
		if got != ref {
			t.Errorf("workers=%d digest differs from inline run: %s",
				workers, firstDiff(ref, got))
		}
	}
}
