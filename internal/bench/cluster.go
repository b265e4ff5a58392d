package bench

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/pard"
)

// ClusterMicro is the cluster_steady BENCH.json section: the shared
// Micro timing fields (events here are engine events summed across the
// cluster's shards) plus the cluster-specific determinism facts. The
// frame count is a pure function of the topology and workload, so
// cmd/benchgate compares it exactly — a drift is a determinism
// regression, not noise.
type ClusterMicro struct {
	Micro
	SimTicksPerSec  float64 `json:"sim_ticks_per_sec"`
	CrossRackFrames uint64  `json:"cross_rack_frames"`
}

// RefClusterRun is how long the reference cluster runs, and
// refClusterFrames how many frames each server pumps. Changing either,
// or cluster.Ref, invalidates the committed cluster_steady record.
const (
	RefClusterRun    = pard.Millisecond
	refClusterFrames = 25
)

// RefCluster builds cluster.Ref's 4-rack × 2-server leaf/spine cluster
// of two-core servers (the fabric, not the cores, is under test) over
// shards shards, one worker each, with the cross-rack workload
// provisioned: the cluster `pardbench -cluster` checks and
// MeasureClusterSteady times.
func RefCluster(shards int) (*pard.Cluster, error) {
	scfg := pard.DefaultConfig()
	scfg.Cores = 2
	ref := cluster.Ref()
	c, err := pard.NewCluster(pard.ClusterConfig{
		Racks: ref.Racks, ServersPerRack: ref.ServersPerRack, Spines: ref.Spines,
		Shards: shards, Workers: shards, Server: scfg,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: reference cluster: %w", err)
	}
	if err := pard.ProvisionClusterWorkload(c, refClusterFrames); err != nil {
		return nil, fmt.Errorf("bench: reference cluster: %w", err)
	}
	return c, nil
}

// MeasureClusterSteady times one steady-state run of RefCluster, built
// sequentially (Shards=1 — the measurement is the per-event cost of
// the fabric-extended simulation, not the parallel speedup, which
// BENCH.json's rack_parallel section already tracks): drive the
// cross-rack workload for RefClusterRun and normalize wall time by
// engine events executed. Allocation counts are not measured — a
// whole-cluster run has warmup allocations by design — so
// AllocsPerEvent stays zero and benchgate's alloc gate is inert for
// this section.
func MeasureClusterSteady() (ClusterMicro, error) {
	c, err := RefCluster(1)
	if err != nil {
		return ClusterMicro{}, err
	}
	start := time.Now()
	c.Run(RefClusterRun)
	wall := time.Since(start)

	var events uint64
	for i := 0; i < c.Topo.Shards; i++ {
		events += c.Group.Shard(i).Engine().Executed()
	}
	ns := float64(wall.Nanoseconds()) / float64(events)
	return ClusterMicro{
		Micro: Micro{
			EventsPerSec: 1e9 / ns,
			NsPerEvent:   ns,
		},
		SimTicksPerSec:  float64(RefClusterRun) / wall.Seconds(),
		CrossRackFrames: c.CrossRackFrames(),
	}, nil
}

// BestCluster is Best for the cluster measurement: fastest of n runs,
// with the deterministic CrossRackFrames cross-checked between runs —
// a mismatch means the simulation itself is not reproducible.
func BestCluster(n int) (ClusterMicro, error) {
	out, err := MeasureClusterSteady()
	if err != nil {
		return out, err
	}
	for i := 1; i < n; i++ {
		m, err := MeasureClusterSteady()
		if err != nil {
			return out, err
		}
		if m.CrossRackFrames != out.CrossRackFrames {
			return out, fmt.Errorf("bench: cluster_steady: cross-rack frames differ between runs (%d vs %d)",
				m.CrossRackFrames, out.CrossRackFrames)
		}
		if m.NsPerEvent < out.NsPerEvent {
			m.CrossRackFrames = out.CrossRackFrames
			out = m
		}
	}
	return out, nil
}
