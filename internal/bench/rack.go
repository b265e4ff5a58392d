package bench

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"repro/internal/exp"
	"repro/internal/sim"
	"repro/pard"
)

// RackPoint is one point of the rack_parallel scaling curve.
type RackPoint struct {
	Shards         int     `json:"shards"`
	Workers        int     `json:"workers"`
	WallMs         float64 `json:"wall_ms"`
	SpeedupVs1     float64 `json:"speedup_vs_1shard"`
	SimTicksPerSec float64 `json:"sim_ticks_per_sec"`
	Windows        uint64  `json:"windows"`
	IdleSkips      uint64  `json:"idle_skips"`
	CrossSends     uint64  `json:"cross_sends"`
	// SpeedupUnreliable marks points where the shard count exceeds the
	// machine's CPUs: the workers time-slice one another, so the wall
	// clock measures contention, not scaling. Gates must skip these.
	SpeedupUnreliable bool `json:"speedup_unreliable,omitempty"`
}

// RackSweep is the BENCH.json rack_parallel record. CPUs pins the
// machine the curve was measured on; it is the one environment-
// dependent fact in the record, kept so the speedup numbers are
// interpretable (a 4-shard speedup measured on 1 CPU is meaningless,
// and each such point also carries SpeedupUnreliable).
type RackSweep struct {
	Servers     int         `json:"servers"`
	SimulatedMs float64     `json:"simulated_ms"`
	CPUs        int         `json:"cpus"`
	Digest      string      `json:"digest"`
	Points      []RackPoint `json:"points"`
}

// RackRing builds the rack sweep's cluster: servers default servers in
// a switchless ring of one-server racks over shards shards, one worker
// each, every server running STREAM and pumping 25 flow-tagged frames
// to its successor (pard.ProvisionClusterWorkload, the traffic
// TestParallelRackEquivalence drives). The root
// BenchmarkRackParallel* build it too.
func RackRing(servers, shards int) (*pard.Cluster, error) {
	c, err := pard.NewCluster(pard.ClusterConfig{
		Racks: servers, ServersPerRack: 1, Switchless: true,
		Shards: shards, Workers: shards, Server: pard.DefaultConfig(),
	})
	if err != nil {
		return nil, fmt.Errorf("bench: rack ring: %w", err)
	}
	if err := pard.ProvisionClusterWorkload(c, 25); err != nil {
		return nil, fmt.Errorf("bench: rack ring: %w", err)
	}
	return c, nil
}

// MeasureRackSweep runs RackRing at each requested shard count and
// verifies every run's state digest is identical — a mismatch is a
// determinism regression, not noise, and fails the measurement. Shared
// by cmd/pardbench (which records the curve into BENCH.json) and
// cmd/benchgate (which re-measures the multi-core speedup on CI and
// holds it above the committed floor).
func MeasureRackSweep(shardCounts []int, scale exp.Scale) (*RackSweep, error) {
	servers, simTime := 4, sim.Tick(pard.Millisecond)
	if scale == exp.Full {
		servers, simTime = 8, 5*sim.Tick(pard.Millisecond)
	}
	for _, s := range shardCounts {
		if s > servers {
			servers = s
		}
	}

	sweep := &RackSweep{
		Servers:     servers,
		SimulatedMs: float64(simTime) / float64(pard.Millisecond),
		CPUs:        runtime.NumCPU(),
	}
	for _, shards := range shardCounts {
		c, err := RackRing(servers, shards)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		c.Run(simTime)
		wall := time.Since(start)

		h := fnv.New64a()
		h.Write([]byte(pard.StateDigest(c.Servers)))
		digest := fmt.Sprintf("%#016x", h.Sum64())
		if sweep.Digest == "" {
			sweep.Digest = digest
		} else if digest != sweep.Digest {
			return nil, fmt.Errorf(
				"bench: determinism regression: shards=%d digest %s != %s", shards, digest, sweep.Digest)
		}

		p := RackPoint{
			Shards:            shards,
			Workers:           c.Group.Workers(),
			WallMs:            float64(wall.Nanoseconds()) / 1e6,
			SimTicksPerSec:    float64(simTime) / wall.Seconds(),
			Windows:           c.Group.WindowsRun,
			IdleSkips:         c.Group.IdleSkips,
			CrossSends:        c.Group.CrossSends,
			SpeedupUnreliable: shards > sweep.CPUs,
		}
		if len(sweep.Points) > 0 {
			p.SpeedupVs1 = sweep.Points[0].WallMs / p.WallMs
		} else {
			p.SpeedupVs1 = 1
		}
		sweep.Points = append(sweep.Points, p)
	}
	return sweep, nil
}
