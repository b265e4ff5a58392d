// Package cluster is PARD's federation layer: a Topology describing
// many racks, behind a spine/leaf switch fabric or linked server to
// server, and a Controller that owns every server's PRM firmware
// handle, aggregates their telemetry into cluster-level series, and
// applies compiled intents — per-server policy loads journaled under
// an origin=cluster:<intent> label plus fabric parameter writes. It is
// the "SDN controller for computers" the paper's §8 sketches;
// pard.Cluster composes it with the actual simulated servers and
// fabric.
package cluster

import (
	"fmt"

	"repro/internal/sim"
)

// Topology describes a spine/leaf cluster: Racks racks of
// ServersPerRack servers, each rack behind one leaf switch, every leaf
// linked to every spine. Zero-valued fields take defaults from
// Normalize.
type Topology struct {
	Racks          int
	ServersPerRack int
	Spines         int

	// Switchless builds no leaf or spine: server s of rack r links
	// straight to server s of racks r±1 (a ring over the racks, see
	// ConnectRing) at FabricLatency. One-server racks make a sharded
	// server ring; a single rack has only its intra-rack ring. Spines
	// is unused.
	Switchless bool

	// RackLatency is the intra-rack link latency: server↔server ring
	// links and server↔leaf uplinks. A rack always lives on one shard,
	// so it may be smaller than the PDES lookahead window.
	RackLatency sim.Tick

	// FabricLatency is the latency of every link between racks
	// (leaf↔spine, or server↔server when Switchless). Only those links
	// cross shards, so it is also the conservative-PDES lookahead
	// window a sharded run synchronizes on.
	FabricLatency sim.Tick

	// Shards is the ShardGroup width; 0 means one shard per rack.
	Shards int
}

// Ref is the reference cluster's shape: 4 racks of 2 servers, each
// rack behind one leaf, every leaf linked to one spine. `pardctl
// intent` and pardlint boot it to compile intent files against, and
// `pardbench -cluster` and the cluster_steady micro-benchmark run it.
func Ref() Topology { return Topology{Racks: 4, ServersPerRack: 2, Spines: 1} }

// DefaultLatency is a link latency left unspecified: one microsecond,
// roughly a top-of-rack switch hop. As the default FabricLatency it is
// also the default PDES lookahead window, so larger values mean fewer
// barriers per simulated second.
const DefaultLatency = sim.Microsecond

// Normalize fills defaults in place: 1 spine, DefaultLatency on both
// link tiers, one shard per rack.
func (t *Topology) Normalize() {
	if t.Spines == 0 {
		t.Spines = 1
	}
	if t.RackLatency == 0 {
		t.RackLatency = DefaultLatency
	}
	if t.FabricLatency == 0 {
		t.FabricLatency = DefaultLatency
	}
	if t.Shards == 0 {
		t.Shards = t.Racks
	}
}

// Validate checks a normalized topology at wiring time, before any
// engine or shard group exists, so a bad shape is an error saying what
// is needed rather than a panic mid-run.
func (t Topology) Validate() error {
	if t.Racks < 1 {
		return fmt.Errorf("cluster: topology needs at least 1 rack, have %d", t.Racks)
	}
	if t.ServersPerRack < 1 {
		return fmt.Errorf("cluster: topology needs at least 1 server per rack, have %d", t.ServersPerRack)
	}
	if t.Spines < 1 {
		return fmt.Errorf("cluster: topology needs at least 1 spine, have %d", t.Spines)
	}
	if t.Shards < 1 || t.Shards > t.Racks {
		return fmt.Errorf("cluster: shard count %d out of range [1, %d racks]", t.Shards, t.Racks)
	}
	return nil
}

// RackOf returns the rack a global server index belongs to.
func (t Topology) RackOf(server int) int { return server / t.ServersPerRack }

// ShardOfRack maps a rack onto a shard, round-robin.
func (t Topology) ShardOfRack(rack int) int { return rack % t.Shards }

// SpineFor returns the spine that carries traffic toward a rack: a
// static ECMP-free assignment, so forwarding is deterministic.
func (t Topology) SpineFor(rack int) int { return rack % t.Spines }

// ServerName names a server: "rack<r>-srv<s>". Hyphenated so the name
// is a single .pard identifier for `servers` globs.
func (t Topology) ServerName(rack, srv int) string {
	return fmt.Sprintf("rack%d-srv%d", rack, srv)
}

// LeafName names a rack's leaf switch.
func (t Topology) LeafName(rack int) string { return fmt.Sprintf("leaf%d", rack) }

// SpineName names a spine switch.
func (t Topology) SpineName(spine int) string { return fmt.Sprintf("spine%d", spine) }

// ConnectRing drives a pairwise link function over a ring: node i to
// node (i+1) mod n. A two-node "ring" is the single link. pard.Cluster
// walks it over the servers of a rack and, when switchless, over the
// racks.
func ConnectRing(n int, link func(i, j int) error) error {
	if n < 2 {
		return fmt.Errorf("cluster: ring topology needs at least 2 servers, have %d", n)
	}
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		if n == 2 && i == 1 {
			break // both directions of the single link already exist
		}
		if err := link(i, j); err != nil {
			return err
		}
	}
	return nil
}
