package iodev

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// NICConfig describes the multi-queue NIC.
type NICConfig struct {
	Name        string
	BytesPerSec uint64 // line rate
	VNICs       int    // virtual NIC slots

	RxVector     uint8
	TriggerSlots int
}

// DefaultNICConfig returns a 10 GbE-class adapter (the paper augments an
// Intel 82599 multi-queue NIC).
func DefaultNICConfig() NICConfig {
	return NICConfig{
		Name:        "nic",
		BytesPerSec: 1250 << 20, // ~10 Gb/s
		VNICs:       8,
		RxVector:    11,
	}
}

// NIC control-plane columns.
const (
	ParamVNICMac = "mac" // MAC address bound to the vNIC owning this DS-id

	StatRxBytes = "rx_bytes"
	StatTxBytes = "tx_bytes"
	StatRxPkts  = "rx_pkts"
	StatDropped = "dropped"
)

// Column indices of the NIC plane's parameter and statistics tables.
const nicColMAC = 0

const (
	nicColRxBytes = iota
	nicColTxBytes
	nicColRxPkts
	nicColDropped
)

// NIC is the paper's control-plane-augmented multi-queue NIC: it is
// virtualized into vNICs, each bound to a MAC address and holding an
// LDom's DS-id in a tag register. Incoming frames are classified by
// destination MAC and DMA'd with the owning vNIC's tag; unmatched frames
// are dropped and counted (paper §4.1).
type NIC struct {
	cfg    NICConfig
	engine *sim.Engine
	ids    *core.IDSource
	mem    core.Target
	apic   core.Target

	plane *core.Plane
	vnics map[uint64]*vnic // MAC -> vNIC

	// macOrder holds the bound MACs in ascending order, maintained at
	// bind/unbind time so the per-frame DS-id classification in vnicByDS
	// never sorts (or allocates) on the TX path.
	macOrder []uint64

	// flows maps OpenFlow-style flow ids to DS-ids — the paper's §4.1
	// alternative of integrating PARD with an SDN so a DS-id travels
	// across servers correlated with the network flowid. Flow-table
	// hits override MAC classification.
	flows map[uint64]core.DSID

	// links are the attached point-to-point wires. Transmitted frames
	// are broadcast down every link (deterministic hub semantics); the
	// far NIC's classifier keeps frames addressed to it and drops the
	// rest, so multi-link topologies (rings, meshes) need no switching
	// state in the sender.
	links []nicLink

	// linked tracks local peers for duplicate-link rejection. Lookup
	// only, never iterated.
	linked map[*NIC]bool

	// Prebound TX completion callback: closes the recorder span and
	// completes the packet without a per-frame closure.
	txDoneFn func(*core.Packet)

	RxFrames, TxFrames, DroppedFrames uint64

	// Flight-recorder hop (nil rec disables; every rec call is nil-safe).
	rec *trace.Recorder
	hop int
}

type vnic struct {
	mac uint64
	tag core.TagRegister
	dma *DMAEngine
	buf uint64 // next DMA buffer address within the LDom
}

// NewNIC builds the adapter. mem receives RX DMA; apic receives RX
// interrupts.
func NewNIC(e *sim.Engine, ids *core.IDSource, cfg NICConfig, mem core.Target, apic core.Target) *NIC {
	if cfg.TriggerSlots == 0 {
		cfg.TriggerSlots = 64
	}
	n := &NIC{
		cfg:    cfg,
		engine: e,
		ids:    ids,
		mem:    mem,
		apic:   apic,
		vnics:  make(map[uint64]*vnic),
		flows:  make(map[uint64]core.DSID),
	}
	params := [...]core.Column{
		nicColMAC: {Name: ParamVNICMac, Writable: true},
	}
	stats := [...]core.Column{
		nicColRxBytes: {Name: StatRxBytes},
		nicColTxBytes: {Name: StatTxBytes},
		nicColRxPkts:  {Name: StatRxPkts},
		nicColDropped: {Name: StatDropped},
	}
	n.plane = core.NewPlane(e, "NIC_CP", core.PlaneTypeNIC,
		core.NewTable(params[:]...), core.NewTable(stats[:]...), cfg.TriggerSlots)
	//pardlint:hotpath prebound TX-completion callback
	n.txDoneFn = func(p *core.Packet) {
		n.rec.Finish(n.hop, p)
		p.Complete(n.engine.Now())
	}
	return n
}

// Plane returns the NIC control plane.
func (n *NIC) Plane() *core.Plane { return n.plane }

// AttachRecorder wires the ICN flight recorder into the TX path under
// the configured name and returns the hop id. Call before traffic.
func (n *NIC) AttachRecorder(r *trace.Recorder) int {
	n.rec = r
	n.hop = r.RegisterHop(n.cfg.Name)
	return n.hop
}

// Config returns the adapter configuration.
func (n *NIC) Config() NICConfig { return n.cfg }

// BindVNIC allocates a vNIC: frames to mac are tagged ds. The firmware
// calls this while building an LDom.
func (n *NIC) BindVNIC(mac uint64, ds core.DSID, buf uint64) error {
	if len(n.vnics) >= n.cfg.VNICs {
		return fmt.Errorf("iodev: all %d vNICs in use", n.cfg.VNICs)
	}
	if _, dup := n.vnics[mac]; dup {
		return fmt.Errorf("iodev: MAC %#x already bound", mac)
	}
	v := &vnic{mac: mac, dma: NewDMAEngine(n.engine, n.ids, n.mem), buf: buf}
	v.tag.Set(ds)
	v.dma.Program(ds)
	n.vnics[mac] = v
	i := sort.Search(len(n.macOrder), func(i int) bool { return n.macOrder[i] >= mac })
	n.macOrder = append(n.macOrder, 0)
	copy(n.macOrder[i+1:], n.macOrder[i:])
	n.macOrder[i] = mac
	n.plane.SetParam(ds, ParamVNICMac, mac)
	return nil
}

// UnbindVNIC releases the vNIC bound to mac, along with any flow rules
// pointing at its DS-id.
func (n *NIC) UnbindVNIC(mac uint64) {
	v, ok := n.vnics[mac]
	if !ok {
		return
	}
	ds := v.tag.Get()
	//pardlint:ignore determinism deleting every matching entry is order-independent
	for flow, fds := range n.flows {
		if fds == ds {
			delete(n.flows, flow)
		}
	}
	n.plane.DeleteRow(ds)
	delete(n.vnics, mac)
	if i := sort.Search(len(n.macOrder), func(i int) bool { return n.macOrder[i] >= mac }); i < len(n.macOrder) && n.macOrder[i] == mac {
		n.macOrder = append(n.macOrder[:i], n.macOrder[i+1:]...)
	}
}

// Wire carries transmitted frames toward a peer NIC. Deliver is called
// once per frame per link on the sending NIC's engine; delay is the
// total transit time (serialization plus wire latency) from that
// moment, and the implementation must arrange for the far NIC's
// ReceiveFlow to run — on the far NIC's engine — delay ticks later.
// localWire does this with a same-engine Schedule; pard.Cluster
// provides a cross-shard wire that routes through the shard-runtime
// mailboxes instead.
type Wire interface {
	Deliver(delay sim.Tick, flowID, dstMAC uint64, bytes uint32)
}

// nicLink is one attached wire plus its fixed latency (the conservative
// lookahead a sharded simulation derives its window from).
type nicLink struct {
	wire    Wire
	latency sim.Tick
}

// localWire is the same-engine link: both NICs share one event engine,
// so delivery is a plain future schedule.
type localWire struct {
	engine *sim.Engine
	peer   *NIC
}

func (w *localWire) Deliver(delay sim.Tick, flowID, dstMAC uint64, bytes uint32) {
	w.engine.Schedule(delay, func() { w.peer.ReceiveFlow(flowID, dstMAC, bytes) })
}

// ConnectPeerLatency joins two NICs with a point-to-point link (both
// directions) whose wire latency is added on top of serialization
// delay: frames sent with SendFrame arrive at the peer's classifier, so
// a flow id — and with it a DS-id — travels between servers (paper
// §4.1 / §8: "integrate PARD and SDN so that DS-id can be propagated in
// a data center wide"). Linking a NIC to itself, or the same pair
// twice, is an error: a second link would duplicate every frame. Both
// NICs must share one engine; cross-engine links go through
// ConnectWire.
func (n *NIC) ConnectPeerLatency(other *NIC, latency sim.Tick) error {
	if other == nil || other == n {
		return fmt.Errorf("iodev: NIC %q cannot link to itself", n.cfg.Name)
	}
	if n.linked[other] {
		return fmt.Errorf("iodev: NICs %q and %q are already linked", n.cfg.Name, other.cfg.Name)
	}
	n.addLink(&localWire{engine: n.engine, peer: other}, latency)
	other.addLink(&localWire{engine: other.engine, peer: n}, latency)
	if n.linked == nil {
		n.linked = make(map[*NIC]bool)
	}
	if other.linked == nil {
		other.linked = make(map[*NIC]bool)
	}
	n.linked[other] = true
	other.linked[n] = true
	return nil
}

// ConnectWire attaches a one-directional outbound wire with the given
// latency. The caller owns duplicate detection and the reverse
// direction; this is the hook pard.Cluster uses to splice switch
// uplinks and the cross-shard mailbox path into the TX fan-out.
func (n *NIC) ConnectWire(w Wire, latency sim.Tick) {
	if w == nil {
		panic("iodev: nil wire")
	}
	n.addLink(w, latency)
}

func (n *NIC) addLink(w Wire, latency sim.Tick) {
	n.links = append(n.links, nicLink{wire: w, latency: latency})
}

// NumLinks returns the number of attached outbound wires.
func (n *NIC) NumLinks() int { return len(n.links) }

// SendFrame transmits a frame from an LDom: the payload is DMA-read
// with the LDom's DS-id, and after the wire delay the frame arrives at
// the peer NIC carrying (flowID, dstMAC) for classification there.
func (n *NIC) SendFrame(ds core.DSID, dstMAC, flowID uint64, addr uint64, bytes uint32) {
	n.TxFrames++
	n.plane.AddStatAt(ds, nicColTxBytes, uint64(bytes))
	wireDelay := sim.Tick(uint64(bytes) * uint64(sim.Second) / n.cfg.BytesPerSec)
	deliver := func() {
		for _, l := range n.links {
			l.wire.Deliver(wireDelay+l.latency, flowID, dstMAC, bytes)
		}
	}
	if v := n.vnicByDS(ds); v != nil {
		v.dma.Transfer(addr, bytes, false, deliver)
		return
	}
	deliver()
}

// BindFlow programs a flow-table rule: frames carrying flowID are
// tagged ds regardless of destination MAC, provided a vNIC owns ds.
func (n *NIC) BindFlow(flowID uint64, ds core.DSID) error {
	if n.vnicByDS(ds) == nil {
		return fmt.Errorf("iodev: no vNIC owns %v", ds)
	}
	n.flows[flowID] = ds
	return nil
}

// UnbindFlow removes a flow rule.
func (n *NIC) UnbindFlow(flowID uint64) { delete(n.flows, flowID) }

// Receive models a frame arriving from the wire: classify by destination
// MAC, DMA into the owning LDom with its DS-id, raise a tagged RX
// interrupt.
func (n *NIC) Receive(dstMAC uint64, bytes uint32) {
	n.ReceiveFlow(0, dstMAC, bytes)
}

// ReceiveFlow is Receive for frames carrying an SDN flow id: the flow
// table is consulted first (flowID 0 means untagged traffic), falling
// back to MAC classification.
func (n *NIC) ReceiveFlow(flowID uint64, dstMAC uint64, bytes uint32) {
	var v *vnic
	if flowID != 0 {
		if ds, ok := n.flows[flowID]; ok {
			v = n.vnicByDS(ds)
		}
	}
	if v == nil {
		v = n.vnics[dstMAC]
	}
	if v == nil {
		n.DroppedFrames++
		n.plane.AddStatAt(core.DSIDDefault, nicColDropped, 1)
		return
	}
	ds := v.tag.Get()
	n.RxFrames++
	n.plane.AddStatAt(ds, nicColRxBytes, uint64(bytes))
	n.plane.AddStatAt(ds, nicColRxPkts, 1)
	wireDelay := sim.Tick(uint64(bytes) * uint64(sim.Second) / n.cfg.BytesPerSec)
	addr := v.buf
	v.buf += uint64(bytes)
	n.engine.Schedule(wireDelay, func() {
		v.dma.Transfer(addr, bytes, true, func() {
			if n.apic != nil {
				intr := core.NewPacket(n.ids, core.KindInterrupt, ds, 0, 0, n.engine.Now())
				intr.Vector = n.cfg.RxVector
				n.apic.Request(intr)
			}
		})
	})
}

// Request accepts TX traffic: a PIO write whose Size is the frame
// length. The NIC DMA-reads the payload from the LDom's memory and
// transmits.
func (n *NIC) Request(p *core.Packet) {
	if p.Kind != core.KindPIOWrite {
		panic(fmt.Sprintf("iodev: NIC received %v", p.Kind))
	}
	n.rec.Enter(n.hop, p)
	n.TxFrames++
	n.plane.AddStatAt(p.DSID, nicColTxBytes, uint64(p.Size))
	v := n.vnicByDS(p.DSID)
	wireDelay := sim.Tick(uint64(p.Size) * uint64(sim.Second) / n.cfg.BytesPerSec)
	if v == nil {
		// No vNIC: transmit without DMA modeling.
		p.ScheduleCallAt(n.engine, n.engine.Now()+wireDelay, n.txDoneFn)
		return
	}
	//pardlint:ignore hotalloc one closure per DMA-programmed TX frame, amortized against the microsecond-scale DMA plus wire latency it waits on
	v.dma.Transfer(p.Addr, p.Size, false, func() {
		p.ScheduleCallAt(n.engine, n.engine.Now()+wireDelay, n.txDoneFn)
	})
}

func (n *NIC) vnicByDS(ds core.DSID) *vnic {
	// macOrder is kept sorted at bind time: with duplicate DS-id bindings
	// the lowest-MAC vNIC must win on every run, not whichever the map
	// yields first — and classifying a frame must not sort per packet.
	for _, mac := range n.macOrder {
		if v := n.vnics[mac]; v.tag.Get() == ds {
			return v
		}
	}
	return nil
}

// DropCount returns frames dropped for lack of a matching vNIC.
func (n *NIC) DropCount() uint64 { return n.DroppedFrames }
