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

// ClusterConfig shapes a spine/leaf cluster of PARD servers: the
// paper's §8 data-center setting, where DS-ids propagate past the
// server edge and an SDN-style controller programs both the machines
// and the fabric between them.
type ClusterConfig struct {
	// Racks and ServersPerRack fix the cluster size; each rack sits
	// behind one leaf switch.
	Racks          int
	ServersPerRack int
	// Spines is the spine switch count; 0 means 1. Each leaf links to
	// every spine; the spine carrying a rack's traffic is the static
	// assignment Topology.SpineFor, so forwarding is deterministic.
	Spines int
	// RackLatency is the intra-rack latency: server↔server ring links
	// and server↔leaf uplinks. 0 means DefaultLinkLatency. Racks are
	// never split across shards, so it may be below the window.
	RackLatency Tick
	// FabricLatency is the leaf↔spine latency and the PDES lookahead
	// window of a sharded run. 0 means cluster.DefaultFabricLatency.
	FabricLatency Tick
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

// Cluster is racks of PARD servers behind a spine/leaf fabric, sharded
// over a conservative-PDES shard group (one shard per rack by
// default), with a federated cluster.Controller owning every server's
// PRM. Intra-rack traffic rides the rack ring exactly as in Rack;
// cross-rack frames climb server → leaf → spine → leaf → server
// through DS-id-tagged switch queues. Digest() extends StateDigest
// with the switch planes, and is byte-identical across shard counts
// and repeated runs.
type Cluster struct {
	Topo    cluster.Topology
	Group   *sim.ShardGroup
	Servers []*System
	// Leaves[r] is rack r's leaf; SpineSwitches[i] the i-th spine (on
	// shard 0's engine).
	Leaves        []*fabric.Switch
	SpineSwitches []*fabric.Switch
	// Controller federates the per-server PRMs and the switches.
	Controller *cluster.Controller

	window    Tick
	hostPort  [][]int // [rack][srv]   leaf port facing that server
	leafTrunk [][]int // [rack][spine] leaf port toward that spine
	spinePort [][]int // [spine][rack] spine port toward that leaf
}

// hostWire delivers a switch egress frame into a server NIC on the
// same engine — the leaf-side end of a server↔leaf uplink.
type hostWire struct {
	eng  *sim.Engine
	peer *iodev.NIC
}

func (w hostWire) Deliver(delay sim.Tick, flowID, dstMAC uint64, bytes uint32) {
	peer := w.peer
	w.eng.Schedule(delay, func() { peer.ReceiveFlow(flowID, dstMAC, bytes) })
}

// crossIngressWire carries a frame into a switch on another shard
// through the deterministic mailbox runtime, mirroring crossWire for
// NIC peers. Deliver runs on the sending shard's engine.
type crossIngressWire struct {
	src  *sim.Shard
	dst  int
	sw   *fabric.Switch
	port int
}

func (w *crossIngressWire) Deliver(delay sim.Tick, flowID, dstMAC uint64, bytes uint32) {
	sw, port := w.sw, w.port
	w.src.Send(w.dst, delay, func() { sw.Ingress(port, flowID, dstMAC, bytes) })
}

// NewCluster builds and wires the cluster. All topology problems —
// including a fabric latency below the PDES lookahead window — are
// reported here, at wiring time, with the minimum named.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	topo := cluster.Topology{
		Racks:          cfg.Racks,
		ServersPerRack: cfg.ServersPerRack,
		Spines:         cfg.Spines,
		RackLatency:    cfg.RackLatency,
		FabricLatency:  cfg.FabricLatency,
		Shards:         cfg.Shards,
	}
	if topo.RackLatency == 0 {
		topo.RackLatency = DefaultLinkLatency
	}
	topo.Normalize()
	window := topo.FabricLatency
	if err := topo.Validate(window); err != nil {
		return nil, err
	}

	c := &Cluster{
		Topo:   topo,
		Group:  sim.NewShardGroup(topo.Shards, window, cfg.Workers),
		window: window,
	}
	// The only cross-shard channels are leaf<->spine trunks (spines live
	// on shard 0), all at the fabric latency; register them so the
	// horizons know the exact channel graph.
	for r := 0; r < topo.Racks; r++ {
		if shard := topo.ShardOfRack(r); shard != 0 {
			c.Group.SetLookahead(shard, 0, topo.FabricLatency)
			c.Group.SetLookahead(0, shard, topo.FabricLatency)
		}
	}

	// Servers, rack by rack, each rack whole on its shard's engine.
	for r := 0; r < topo.Racks; r++ {
		eng := c.Group.Shard(topo.ShardOfRack(r)).Engine()
		for s := 0; s < topo.ServersPerRack; s++ {
			c.Servers = append(c.Servers, NewSystemOn(cfg.Server, eng, core.NewIDSource()))
		}
	}

	// Intra-rack server rings, as in Rack.ConnectRing, when a rack has
	// peers to ring.
	for r := 0; r < topo.Racks; r++ {
		base := r * topo.ServersPerRack
		if topo.ServersPerRack < 2 {
			continue
		}
		err := cluster.ConnectRing(topo.ServersPerRack, func(i, j int) error {
			return c.Servers[base+i].NIC.ConnectPeerLatency(c.Servers[base+j].NIC, topo.RackLatency)
		})
		if err != nil {
			return nil, err
		}
	}

	// Leaves: one per rack on the rack's engine, one host port per
	// server, with the server's NIC uplinked back to the port.
	swcfg := func(name string) fabric.Config {
		return fabric.Config{Name: name, BytesPerSec: cfg.SwitchBytesPerSec}
	}
	c.hostPort = make([][]int, topo.Racks)
	for r := 0; r < topo.Racks; r++ {
		eng := c.Group.Shard(topo.ShardOfRack(r)).Engine()
		leaf := fabric.New(eng, swcfg(topo.LeafName(r)))
		c.Leaves = append(c.Leaves, leaf)
		for s := 0; s < topo.ServersPerRack; s++ {
			srv := c.Servers[r*topo.ServersPerRack+s]
			p := leaf.AddPort(fabric.PortHost, hostWire{eng: eng, peer: srv.NIC}, topo.RackLatency)
			c.hostPort[r] = append(c.hostPort[r], p)
			srv.NIC.ConnectWire(fabric.IngressWire{Switch: leaf, Port: p}, topo.RackLatency)
		}
	}

	// Spines on shard 0's engine, full bipartite leaf↔spine wiring.
	// Same-shard pairs use direct ingress wires; cross-shard pairs go
	// through the mailbox runtime at the fabric latency (= window).
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
				toSpine = &crossIngressWire{src: c.Group.Shard(shard), dst: 0, sw: spine, port: down}
				toLeaf = &crossIngressWire{src: c.Group.Shard(0), dst: shard, sw: leaf, port: up}
			}
			if got := leaf.AddPort(fabric.PortTrunk, toSpine, topo.FabricLatency); got != up {
				return nil, fmt.Errorf("pard: leaf %d trunk port drifted", r)
			}
			if got := spine.AddPort(fabric.PortTrunk, toLeaf, topo.FabricLatency); got != down {
				return nil, fmt.Errorf("pard: spine %d port drifted", i)
			}
			c.leafTrunk[r] = append(c.leafTrunk[r], up)
			c.spinePort[i] = append(c.spinePort[i], down)
		}
	}

	// The federated controller, clocked by shard 0.
	c.Controller = cluster.NewController(spineEng, topo)
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

// Server returns the global server index's system.
func (c *Cluster) Server(gi int) *System { return c.Servers[gi] }

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
// which crossed racks (leaves count local uplink traffic too).
func (c *Cluster) CrossRackFrames() uint64 {
	var n uint64
	for _, sp := range c.SpineSwitches {
		n += sp.Forwarded
	}
	return n
}

// ProvisionClusterWorkload installs the standard cluster workload: per
// server one "svc" LDom (MAC 0xA0+gi) running STREAM, fabric-wide MAC
// bindings, and a pump of `frames` flow-tagged 1500-byte frames toward
// the same-position server in the next rack — all traffic crosses the
// fabric. Pump phases and periods are de-phased per server so
// deliveries never tie at one receiver (DESIGN.md §11), keeping the
// digest shard-count-invariant.
func ProvisionClusterWorkload(c *Cluster, frames int) error {
	if c.Topo.Racks < 2 {
		return fmt.Errorf("pard: cluster workload needs at least 2 racks, have %d (use ProvisionScalingWorkload for one rack)", c.Topo.Racks)
	}
	n := len(c.Servers)
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
	spr := c.Topo.ServersPerRack
	for gi, s := range c.Servers {
		dst := ((c.Topo.RackOf(gi)+1)%c.Topo.Racks)*spr + gi%spr
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
