package pard

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
)

// Rack is a set of PARD servers sharing one simulation, with
// point-to-point NIC links between them — the smallest model of the
// paper's data-center setting, where an SDN correlates network flow ids
// with DS-ids so differentiated service follows a request across
// machines (paper §4.1 / §8). For multi-core hosts, ParallelRack runs
// the same topology sharded across engines; the two are equivalent by
// construction and by test (see parallel_test.go).
type Rack struct {
	Engine  *sim.Engine
	Servers []*System

	links map[linkKey]bool
}

// linkKey identifies an undirected server pair; normalize orders it.
type linkKey struct{ a, b int }

func (k linkKey) normalize() linkKey {
	if k.a > k.b {
		k.a, k.b = k.b, k.a
	}
	return k
}

// NewRack builds n identical servers on one engine. Each server gets
// its own pooled packet-id source, so ids — and trace sampling, which
// masks them — do not depend on rack size or on how servers are later
// sharded.
func NewRack(cfg Config, n int) *Rack {
	if n <= 0 {
		panic("pard: rack needs at least one server")
	}
	r := &Rack{Engine: sim.NewEngine(), links: make(map[linkKey]bool)}
	for i := 0; i < n; i++ {
		r.Servers = append(r.Servers, NewSystemOn(cfg, r.Engine, core.NewIDSource()))
	}
	return r
}

// Connect links two servers' NICs point to point with zero wire
// latency. Linking a pair twice is an error (it would duplicate every
// frame on the wire; it used to silently re-link instead).
func (r *Rack) Connect(i, j int) error { return r.ConnectLatency(i, j, 0) }

// ConnectLatency is Connect with an explicit wire latency added to
// every frame in both directions.
func (r *Rack) ConnectLatency(i, j int, latency Tick) error {
	if err := r.addLink(i, j); err != nil {
		return err
	}
	return r.Servers[i].NIC.ConnectPeerLatency(r.Servers[j].NIC, latency)
}

// addLink validates the pair and claims it in the rack's link set.
func (r *Rack) addLink(i, j int) error {
	if i < 0 || i >= len(r.Servers) || j < 0 || j >= len(r.Servers) || i == j {
		return fmt.Errorf("pard: bad rack link %d-%d", i, j)
	}
	k := linkKey{i, j}.normalize()
	if r.links[k] {
		return fmt.Errorf("pard: servers %d and %d are already linked", k.a, k.b)
	}
	r.links[k] = true
	return nil
}

// ConnectRing links server i to server (i+1) mod n with the given
// latency — the standard multi-server bench topology. A two-server
// "ring" is the single link. The topology walk lives in
// internal/cluster so Rack, ParallelRack and Cluster share it.
func (r *Rack) ConnectRing(latency Tick) error {
	return cluster.ConnectRing(len(r.Servers), func(i, j int) error {
		return r.ConnectLatency(i, j, latency)
	})
}

// ConnectFullMesh links every server pair with the given latency.
func (r *Rack) ConnectFullMesh(latency Tick) error {
	return cluster.ConnectFullMesh(len(r.Servers), func(i, j int) error {
		return r.ConnectLatency(i, j, latency)
	})
}

// Run advances the whole rack by d.
func (r *Rack) Run(d Tick) { r.Engine.Run(r.Engine.Now() + d) }
