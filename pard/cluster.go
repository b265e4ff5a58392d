package pard

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/iodev"
	"repro/internal/sim"
)

// ClusterConfig shapes a cluster of PARD servers: the paper's §8
// data-center setting, where DS-ids propagate past the server edge and
// an SDN-style controller programs both the machines and the fabric
// between them.
type ClusterConfig struct {
	// Racks and ServersPerRack fix the cluster size; each rack sits
	// behind one leaf switch.
	Racks          int
	ServersPerRack int
	// Spines is the spine switch count; 0 means 1. Each leaf links to
	// every spine; the spine carrying a rack's traffic is the static
	// assignment Topology.SpineFor, so forwarding is deterministic.
	Spines int
	// Switchless builds no switches: server s of rack r links straight
	// to server s of racks r±1. One-server racks make the sharded
	// server ring the rack sweep measures. Every link, within a rack or
	// between racks, has cluster.DefaultLatency, which is also the PDES
	// lookahead window of a sharded run.
	Switchless bool
	// Shards spreads racks over PDES shards (rack r on shard r mod
	// Shards); 0 means one shard per rack, 1 runs sequentially.
	Shards int
	// Workers bounds the shard-driving goroutine pool; 0 means
	// GOMAXPROCS. Never affects simulation results.
	Workers int
	// SwitchBytesPerSec serializes switch egress at that line rate;
	// 0 keeps every switch in passthrough (forward at ingress time).
	SwitchBytesPerSec uint64
	// Server is the per-server hardware configuration.
	Server Config
}

// Cluster is racks of PARD servers sharing one simulation, sharded over
// a conservative-PDES shard group (one shard per rack by default),
// with a federated cluster.Controller owning every server's PRM. It is
// the only way to put several servers into one simulation. Intra-rack
// traffic rides the rack ring; cross-rack frames climb server → leaf →
// spine → leaf → server through DS-id-tagged switch queues or, when
// switchless, cross one direct link to the next rack. Digest() extends
// StateDigest with the switch planes, and is byte-identical across
// shard counts, worker counts and repeated runs.
type Cluster struct {
	Topo    cluster.Topology
	Group   *sim.ShardGroup
	Servers []*System
	// Leaves[r] is rack r's leaf; SpineSwitches[i] the i-th spine (on
	// shard 0's engine). Both are empty when switchless.
	Leaves        []*fabric.Switch
	SpineSwitches []*fabric.Switch
	// Controller federates the per-server PRMs and the switches.
	Controller *cluster.Controller

	hostPort  [][]int // [rack][srv]   leaf port facing that server
	leafTrunk [][]int // [rack][spine] leaf port toward that spine
	spinePort [][]int // [spine][rack] spine port toward that leaf
}

// crossWire is a link into another shard: Deliver runs on the sending
// shard's engine (single-producer) and books the frame into the shard
// runtime's mailbox toward the destination shard, where it is injected
// at the next barrier and handed to recv — a NIC's ReceiveFlow or a
// switch port's Ingress — on that shard's engine.
type crossWire struct {
	src  *sim.Shard
	dst  int
	recv func(flowID, dstMAC uint64, bytes uint32)
}

func (w *crossWire) Deliver(delay sim.Tick, flowID, dstMAC uint64, bytes uint32) {
	recv := w.recv
	w.src.Send(w.dst, delay, func() { recv(flowID, dstMAC, bytes) })
}

// NewCluster builds and wires the cluster. A bad topology is an error
// here, at wiring time, never a panic mid-run.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	topo := cluster.Topology{
		Racks:          cfg.Racks,
		ServersPerRack: cfg.ServersPerRack,
		Spines:         cfg.Spines,
		Switchless:     cfg.Switchless,
		Shards:         cfg.Shards,
	}
	topo.Normalize()
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{
		Topo:  topo,
		Group: sim.NewShardGroup(topo.Shards, topo.FabricLatency, cfg.Workers),
	}

	// Servers, rack by rack, each rack whole on its shard's engine, each
	// server with its own packet-id source so ids (and trace sampling)
	// do not depend on cluster size or sharding.
	for r := 0; r < topo.Racks; r++ {
		eng := c.Group.Shard(topo.ShardOfRack(r)).Engine()
		for s := 0; s < topo.ServersPerRack; s++ {
			c.Servers = append(c.Servers, newSystemOn(cfg.Server, eng, core.NewIDSource()))
		}
	}

	// Intra-rack server rings, when a rack has peers to ring.
	for r := 0; r < topo.Racks && topo.ServersPerRack > 1; r++ {
		base := r * topo.ServersPerRack
		err := cluster.ConnectRing(topo.ServersPerRack, func(i, j int) error {
			return c.Servers[base+i].NIC.ConnectPeerLatency(c.Servers[base+j].NIC, topo.RackLatency)
		})
		if err != nil {
			return nil, err
		}
	}

	var err error
	if topo.Switchless {
		err = c.ringRacks()
	} else {
		err = c.buildFabric(cfg.SwitchBytesPerSec)
	}
	if err != nil {
		return nil, err
	}

	// The federated controller, clocked by shard 0.
	c.Controller = cluster.NewController(c.Group.Shard(0).Engine(), topo)
	for gi, srv := range c.Servers {
		name := topo.ServerName(topo.RackOf(gi), gi%topo.ServersPerRack)
		err := c.Controller.AttachServer(cluster.Server{
			Name:      name,
			Firmware:  srv.Firmware,
			Telemetry: srv.Telemetry,
			Journal:   srv.Journal,
		})
		if err != nil {
			return nil, err
		}
	}
	for r, leaf := range c.Leaves {
		if err := c.Controller.AttachSwitch(topo.LeafName(r), leaf); err != nil {
			return nil, err
		}
	}
	for i, spine := range c.SpineSwitches {
		if err := c.Controller.AttachSwitch(topo.SpineName(i), spine); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// mailbox returns a crossWire from shard src into recv on shard dst and
// registers that channel's lookahead, so the coordinator holds the
// pair's horizon at the real link latency. Every link between racks
// runs at the fabric latency, which is also the window.
func (c *Cluster) mailbox(src, dst int, recv func(flowID, dstMAC uint64, bytes uint32)) iodev.Wire {
	c.Group.SetLookahead(src, dst, c.Topo.FabricLatency)
	return &crossWire{src: c.Group.Shard(src), dst: dst, recv: recv}
}

// ringRacks is the switchless wiring between racks: server s of each
// rack links to server s of the next rack at the fabric latency, over a
// plain NIC link when both racks share a shard and a mailbox wire each
// way when they do not.
func (c *Cluster) ringRacks() error {
	t := c.Topo
	if t.Racks < 2 {
		return nil
	}
	for s := 0; s < t.ServersPerRack; s++ {
		err := cluster.ConnectRing(t.Racks, func(i, j int) error {
			a, b := c.Servers[i*t.ServersPerRack+s].NIC, c.Servers[j*t.ServersPerRack+s].NIC
			si, sj := t.ShardOfRack(i), t.ShardOfRack(j)
			if si == sj {
				return a.ConnectPeerLatency(b, t.FabricLatency)
			}
			a.ConnectWire(c.mailbox(si, sj, b.ReceiveFlow), t.FabricLatency)
			b.ConnectWire(c.mailbox(sj, si, a.ReceiveFlow), t.FabricLatency)
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// buildFabric adds the switches: one leaf per rack on the rack's engine
// with a host port uplinking each server, and the spines on shard 0's
// engine, every leaf trunked to every spine at the fabric latency.
func (c *Cluster) buildFabric(bytesPerSec uint64) error {
	topo := c.Topo
	swcfg := func(name string) fabric.Config {
		return fabric.Config{Name: name, BytesPerSec: bytesPerSec}
	}
	c.hostPort = make([][]int, topo.Racks)
	for r := 0; r < topo.Racks; r++ {
		eng := c.Group.Shard(topo.ShardOfRack(r)).Engine()
		leaf := fabric.New(eng, swcfg(topo.LeafName(r)))
		c.Leaves = append(c.Leaves, leaf)
		for s := 0; s < topo.ServersPerRack; s++ {
			srv := c.Servers[r*topo.ServersPerRack+s]
			p := leaf.AddPort(fabric.PortHost, iodev.LocalWire{NIC: srv.NIC}, topo.RackLatency)
			c.hostPort[r] = append(c.hostPort[r], p)
			srv.NIC.ConnectWire(fabric.IngressWire{Switch: leaf, Port: p}, topo.RackLatency)
		}
	}

	// Full bipartite leaf↔spine wiring. Same-shard pairs use direct
	// ingress wires; the rest cross shards through mailboxes.
	spineEng := c.Group.Shard(0).Engine()
	c.leafTrunk = make([][]int, topo.Racks)
	c.spinePort = make([][]int, topo.Spines)
	for i := 0; i < topo.Spines; i++ {
		c.SpineSwitches = append(c.SpineSwitches, fabric.New(spineEng, swcfg(topo.SpineName(i))))
	}
	for r := 0; r < topo.Racks; r++ {
		leaf, shard := c.Leaves[r], topo.ShardOfRack(r)
		for i, spine := range c.SpineSwitches {
			// Ports are created pairwise so each end knows the other's
			// index before wiring.
			up := leaf.NumPorts()
			down := spine.NumPorts()
			var toSpine, toLeaf iodev.Wire
			if shard == 0 {
				toSpine = fabric.IngressWire{Switch: spine, Port: down}
				toLeaf = fabric.IngressWire{Switch: leaf, Port: up}
			} else {
				toSpine = c.mailbox(shard, 0, func(flowID, dstMAC uint64, bytes uint32) {
					spine.Ingress(down, flowID, dstMAC, bytes)
				})
				toLeaf = c.mailbox(0, shard, func(flowID, dstMAC uint64, bytes uint32) {
					leaf.Ingress(up, flowID, dstMAC, bytes)
				})
			}
			if got := leaf.AddPort(fabric.PortTrunk, toSpine, topo.FabricLatency); got != up {
				return fmt.Errorf("pard: leaf %d trunk port drifted", r)
			}
			if got := spine.AddPort(fabric.PortTrunk, toLeaf, topo.FabricLatency); got != down {
				return fmt.Errorf("pard: spine %d port drifted", i)
			}
			c.leafTrunk[r] = append(c.leafTrunk[r], up)
			c.spinePort[i] = append(c.spinePort[i], down)
		}
	}
	return nil
}

// BindServerMAC programs the whole fabric's forwarding toward one
// server: its own leaf delivers on the host port, every other leaf
// points at the spine assigned to the destination rack, and every
// spine points at the destination leaf.
func (c *Cluster) BindServerMAC(mac uint64, server int) error {
	if server < 0 || server >= len(c.Servers) {
		return fmt.Errorf("pard: no server %d in cluster", server)
	}
	rack := c.Topo.RackOf(server)
	local := server % c.Topo.ServersPerRack
	for r, leaf := range c.Leaves {
		var port int
		if r == rack {
			port = c.hostPort[r][local]
		} else {
			port = c.leafTrunk[r][c.Topo.SpineFor(rack)]
		}
		if err := leaf.BindMAC(mac, port); err != nil {
			return err
		}
	}
	for i, spine := range c.SpineSwitches {
		if err := spine.BindMAC(mac, c.spinePort[i][rack]); err != nil {
			return err
		}
	}
	return nil
}

// BindFlow classifies a flow id to a DS-id on every switch, so the
// fabric's per-DS-id accounting, weights and rate caps see the flow.
func (c *Cluster) BindFlow(flowID uint64, ds DSID) {
	for _, leaf := range c.Leaves {
		leaf.BindFlow(flowID, ds)
	}
	for _, spine := range c.SpineSwitches {
		spine.BindFlow(flowID, ds)
	}
}

// Run advances the whole cluster by d through barrier windows.
func (c *Cluster) Run(d Tick) { c.Group.Run(d) }

// Digest extends StateDigest over the fabric: every switch's control
// plane tables plus its forward/drop counters. Byte-identical across
// shard counts, worker counts and repeated runs.
func (c *Cluster) Digest() string {
	var b strings.Builder
	b.WriteString(StateDigest(c.Servers))
	for _, sw := range c.Switches() {
		fmt.Fprintf(&b, "switch %s\n", sw.Name())
		digestPlane(&b, sw.Plane())
		fmt.Fprintf(&b, "  fwd=%d dropped=%d\n", sw.Forwarded, sw.Dropped)
	}
	return b.String()
}

// Switches returns every switch, leaves then spines.
func (c *Cluster) Switches() []*fabric.Switch {
	out := make([]*fabric.Switch, 0, len(c.Leaves)+len(c.SpineSwitches))
	out = append(out, c.Leaves...)
	return append(out, c.SpineSwitches...)
}

// CrossRackFrames sums frames forwarded by the spines — every one of
// which crossed racks (leaves count local uplink traffic too). It reads
// 0 on a switchless cluster, which has no spines.
func (c *Cluster) CrossRackFrames() uint64 {
	var n uint64
	for _, sp := range c.SpineSwitches {
		n += sp.Forwarded
	}
	return n
}

// ProvisionClusterWorkload installs the standard multi-server
// workload: per server one "svc" LDom (MAC 0xA0+gi) running STREAM,
// fabric-wide MAC bindings, and a pump of `frames` flow-tagged
// 1500-byte frames (flow 200+gi) toward the same-position server in the
// next rack, or, in a one-rack cluster, the next server of the rack
// ring. Pump phases and periods are de-phased per server so deliveries
// never tie at one receiver (DESIGN.md §11), keeping the digest
// shard-count-invariant. The equivalence suites, the rack sweep
// (BenchmarkRackParallel*, `pardbench -shards`) and `pardbench
// -cluster` all drive exactly this traffic.
func ProvisionClusterWorkload(c *Cluster, frames int) error {
	n := len(c.Servers)
	if n < 2 {
		return fmt.Errorf("pard: cluster workload needs at least 2 servers, have %d", n)
	}
	lds := make([]*LDom, n)
	for gi, s := range c.Servers {
		ld, err := s.CreateLDom(LDomConfig{
			Name: "svc", Cores: []int{0}, MemBase: 0,
			MAC: uint64(0xA0 + gi), NICBuf: 0x1000,
		})
		if err != nil {
			return err
		}
		lds[gi] = ld
		if err := c.BindServerMAC(uint64(0xA0+gi), gi); err != nil {
			return err
		}
		s.RunWorkload(0, NewSTREAM(uint64(gi)))
	}
	step := c.Topo.ServersPerRack // one rack ahead, same position
	if c.Topo.Racks == 1 {
		step = 1
	}
	for gi, s := range c.Servers {
		dst := (gi + step) % n
		flow := uint64(200 + gi)
		if err := c.Servers[dst].NIC.BindFlow(flow, lds[dst].DSID); err != nil {
			return err
		}
		c.BindFlow(flow, lds[dst].DSID)
		s, ld, mac := s, lds[gi], uint64(0xA0+dst)
		sent := 0
		var pump func()
		pump = func() {
			s.NIC.SendFrame(ld.DSID, mac, flow, 0x4000, 1500)
			if sent++; sent < frames {
				s.Engine.Schedule(29*Microsecond+Tick(gi)*1709*Nanosecond, pump)
			}
		}
		s.Engine.At(3*Microsecond+Tick(gi)*977*Nanosecond, pump)
	}
	return nil
}
