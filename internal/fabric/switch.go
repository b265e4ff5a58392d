// Package fabric models the cluster interconnect as first-class PARD
// ICN components: a Switch is a control-plane-augmented store-and-
// forward element in the same mold as the LLC, memory controller and
// NIC — DS-id-tagged frames, a parameter/statistics/trigger plane
// (core.Plane), and a programmable per-port egress scheduler built on
// core.PIFO. This is the paper's §8 direction ("integrate PARD and SDN
// so that DS-id can be propagated in a data center wide") made
// concrete: the switch forwards by destination MAC, classifies DS-ids
// through an OpenFlow-style flow table identical in spirit to the
// NIC's, and exposes per-DS-id weights and rate caps the federated PRM
// (internal/cluster) programs like any other plane parameter.
package fabric

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/iodev"
	"repro/internal/sim"
)

// Switch control-plane columns.
const (
	// ParamWeight is the per-DS-id WFQ weight used by the "wfq" egress
	// scheduler; under "fifo" it is ignored. Zero is read as 1.
	ParamWeight = "weight"
	// ParamRateCap is the per-DS-id ingress rate cap in bytes/s,
	// enforced by a deterministic token bucket; 0 = unlimited.
	ParamRateCap = "rate_cap"

	StatFwdFrames = "fwd_frames"
	StatFwdBytes  = "fwd_bytes"
	StatQDepth    = "q_depth"
	StatDrops     = "drops"
)

// Column indices of the switch plane's tables.
const (
	colWeight = iota
	colRateCap
)

const (
	colFwdFrames = iota
	colFwdBytes
	colQDepth
	colDrops
)

// SchedAlgos lists the egress scheduling algorithms the switch
// implements; the first is the power-on default. The plane hands the
// list to the .pard compiler as the switch's schedule catalogue.
var SchedAlgos = []string{"fifo", "wfq"}

// Config describes one switch.
type Config struct {
	Name string
	// BytesPerSec is the per-port egress line rate. 0 means passthrough:
	// frames forward with zero serialization delay, which keeps a
	// 1-rack cluster byte-identical to a switchless one.
	BytesPerSec  uint64
	TriggerSlots int
}

// PortClass distinguishes server-facing ports from inter-switch trunks.
type PortClass int

// Port classes.
const (
	// PortHost faces a server NIC. Host→host forwarding is suppressed
	// (split horizon): intra-rack traffic is delivered by the rack's own
	// point-to-point links, and forwarding it again through the leaf
	// would duplicate every local frame.
	PortHost PortClass = iota
	// PortTrunk faces another switch.
	PortTrunk
)

// frame is one queued DS-id-tagged frame.
type frame struct {
	ds     core.DSID
	flowID uint64
	dstMAC uint64
	bytes  uint32
}

// port is one egress port: an outbound wire plus a PIFO-scheduled
// queue. The wire's Deliver contract is iodev.Wire's — the far end may
// be a NIC, another switch, or a cross-shard mailbox adapter.
type port struct {
	class   PortClass
	wire    iodev.Wire
	latency sim.Tick
	q       core.PIFO[frame]
	busy    bool     // a frame is serializing onto the line
	vfinish []uint64 // WFQ virtual finish time, indexed by DS-id
}

// bucket is a per-DS-id ingress token bucket in sim-time. Integer
// arithmetic only, so enforcement is bit-deterministic.
type bucket struct {
	tokens uint64   // bytes available
	last   sim.Tick // last refill time
}

// Switch is the fabric element. All methods run on the owning engine's
// event loop; the switch itself is single-threaded like every other
// component.
type Switch struct {
	cfg    Config
	engine *sim.Engine
	plane  *core.Plane

	ports []*port
	macs  map[uint64]int       // dstMAC -> egress port; lookup only
	flows map[uint64]core.DSID // flow id -> DS-id; lookup only

	algo    string
	buckets []*bucket // indexed by DS-id; nil until ds is rate-capped

	// Forwarded and Dropped count frames switch-wide, for digests and
	// the cluster_steady bench.
	Forwarded uint64
	Dropped   uint64
}

// New builds a switch on the given engine.
func New(e *sim.Engine, cfg Config) *Switch {
	if cfg.Name == "" {
		cfg.Name = "switch"
	}
	if cfg.TriggerSlots == 0 {
		cfg.TriggerSlots = 64
	}
	params := [...]core.Column{
		colWeight:  {Name: ParamWeight, Writable: true, Default: 1},
		colRateCap: {Name: ParamRateCap, Writable: true},
	}
	stats := [...]core.Column{
		colFwdFrames: {Name: StatFwdFrames},
		colFwdBytes:  {Name: StatFwdBytes},
		colQDepth:    {Name: StatQDepth},
		colDrops:     {Name: StatDrops},
	}
	s := &Switch{
		cfg:    cfg,
		engine: e,
		macs:   make(map[uint64]int),
		flows:  make(map[uint64]core.DSID),
		algo:   SchedAlgos[0],
	}
	s.plane = core.NewPlane(e, "SWITCH_CP", core.PlaneTypeSwitch,
		core.NewTable(params[:]...), core.NewTable(stats[:]...), cfg.TriggerSlots)
	s.plane.SetSchedulerHook(SchedAlgos, func(algo string) { s.algo = algo })
	return s
}

// Plane returns the switch control plane.
func (s *Switch) Plane() *core.Plane { return s.plane }

// Config returns the switch configuration.
func (s *Switch) Config() Config { return s.cfg }

// Name returns the configured switch name.
func (s *Switch) Name() string { return s.cfg.Name }

// NumPorts returns the number of attached ports.
func (s *Switch) NumPorts() int { return len(s.ports) }

// AddPort attaches an egress wire and returns the new port's index.
// latency is the one-way link latency the wire adds on top of
// serialization; for cross-shard wires it must be at least the PDES
// lookahead window (the topology builder validates this at wiring
// time).
func (s *Switch) AddPort(class PortClass, w iodev.Wire, latency sim.Tick) int {
	if w == nil {
		panic("fabric: nil wire")
	}
	s.ports = append(s.ports, &port{
		class:   class,
		wire:    w,
		latency: latency,
	})
	return len(s.ports) - 1
}

// BindMAC programs the forwarding table: frames for dstMAC egress
// through the given port. Rebinding overwrites (topology reconvergence).
func (s *Switch) BindMAC(dstMAC uint64, portIdx int) error {
	if portIdx < 0 || portIdx >= len(s.ports) {
		return fmt.Errorf("fabric: %s: port %d out of range (%d ports)", s.cfg.Name, portIdx, len(s.ports))
	}
	s.macs[dstMAC] = portIdx
	return nil
}

// BindFlow programs the flow table: frames carrying flowID are
// accounted (and scheduled) under ds, mirroring the NIC flow table so
// a DS-id travels with its flow across the fabric.
func (s *Switch) BindFlow(flowID uint64, ds core.DSID) {
	s.flows[flowID] = ds
	s.plane.CreateRow(ds)
}

// UnbindFlow removes a flow rule.
func (s *Switch) UnbindFlow(flowID uint64) { delete(s.flows, flowID) }

// classify resolves a frame's DS-id: flow-table hit first (flowID 0 is
// untagged), else the default DS-id — the fabric's "background" class.
func (s *Switch) classify(flowID uint64) core.DSID {
	if flowID != 0 {
		if ds, ok := s.flows[flowID]; ok {
			return ds
		}
	}
	return core.DSIDDefault
}

// Ingress accepts one frame arriving on inPort. It classifies the
// DS-id, looks up the egress port, applies the split-horizon rule and
// the per-DS-id rate cap, then queues the frame on the egress PIFO.
func (s *Switch) Ingress(inPort int, flowID, dstMAC uint64, bytes uint32) {
	ds := s.classify(flowID)
	outIdx, ok := s.macs[dstMAC]
	if !ok {
		s.drop(ds)
		return
	}
	in := s.ports[inPort]
	out := s.ports[outIdx]
	if outIdx == inPort || (in.class == PortHost && out.class == PortHost) {
		// Split horizon: never hairpin, and never forward host→host —
		// the rack's own links already deliver intra-rack frames.
		s.drop(ds)
		return
	}
	if !s.admit(ds, bytes) {
		s.drop(ds)
		return
	}
	out.q.Push(frame{ds: ds, flowID: flowID, dstMAC: dstMAC, bytes: bytes}, s.rank(out, ds, bytes))
	s.plane.AddStatAt(ds, colQDepth, 1)
	s.transmit(out)
}

// admit enforces the DS-id's rate cap with a token bucket refilled in
// sim-time. Cap 0 admits unconditionally and keeps no bucket state.
func (s *Switch) admit(ds core.DSID, bytes uint32) bool {
	capBps := s.plane.ParamAt(ds, colRateCap)
	if capBps == 0 {
		return true
	}
	s.buckets = core.GrowTo(s.buckets, ds)
	b := s.buckets[ds]
	now := s.engine.Now()
	if b == nil {
		b = &bucket{tokens: burstFor(capBps), last: now}
		s.buckets[ds] = b
	}
	if now > b.last {
		refill := uint64(now-b.last) * capBps / uint64(sim.Second)
		b.tokens += refill
		if burst := burstFor(capBps); b.tokens > burst {
			b.tokens = burst
		}
		b.last = now
	}
	if b.tokens < uint64(bytes) {
		return false
	}
	b.tokens -= uint64(bytes)
	return true
}

// burstFor sizes a cap's bucket: one millisecond of line rate, floored
// at a full-size frame so a cap can never deadlock below the MTU.
func burstFor(cap uint64) uint64 {
	burst := cap / 1000
	if burst < 1500 {
		burst = 1500
	}
	return burst
}

// rank computes the push rank for a frame on an egress port under the
// installed algorithm. "fifo" ranks every frame 0, so the PIFO's
// push-order tie-break yields pure FIFO. "wfq" is start-time-fair
// queueing: each DS-id's virtual finish time advances by
// bytes/weight, so a DS-id with weight w drains w× the bytes of a
// weight-1 competitor under contention. Integer arithmetic throughout.
func (s *Switch) rank(out *port, ds core.DSID, bytes uint32) uint64 {
	if s.algo != "wfq" {
		return 0
	}
	w := s.plane.ParamAt(ds, colWeight)
	if w == 0 {
		w = 1
	}
	out.vfinish = core.GrowTo(out.vfinish, ds)
	out.vfinish[ds] += uint64(bytes) * 256 / w
	return out.vfinish[ds]
}

// transmit drains the egress port. With a line rate configured, one
// frame serializes at a time; passthrough ports forward the whole
// queue immediately.
func (s *Switch) transmit(out *port) {
	if s.cfg.BytesPerSec == 0 {
		for {
			f, ok := out.q.Pop()
			if !ok {
				return
			}
			s.forward(out, f)
		}
	}
	if out.busy {
		return
	}
	f, ok := out.q.Pop()
	if !ok {
		return
	}
	out.busy = true
	ser := sim.Tick(uint64(f.bytes) * uint64(sim.Second) / s.cfg.BytesPerSec)
	s.engine.Schedule(ser, func() {
		s.forward(out, f)
		out.busy = false
		s.transmit(out)
	})
}

// forward counts one departing frame and hands it to the port's wire.
func (s *Switch) forward(out *port, f frame) {
	s.Forwarded++
	s.plane.SubStatAt(f.ds, colQDepth, 1)
	s.plane.AddStatAt(f.ds, colFwdFrames, 1)
	s.plane.AddStatAt(f.ds, colFwdBytes, uint64(f.bytes))
	out.wire.Deliver(out.latency, f.flowID, f.dstMAC, f.bytes)
}

// drop counts one discarded frame.
func (s *Switch) drop(ds core.DSID) {
	s.Dropped++
	s.plane.AddStatAt(ds, colDrops, 1)
}

// IngressWire adapts a switch port to iodev.Wire so a NIC (or another
// same-engine switch) can transmit into it: Deliver schedules Ingress
// on the switch's engine after the wire delay.
type IngressWire struct {
	Switch *Switch
	Port   int
}

// Deliver implements iodev.Wire.
func (w IngressWire) Deliver(delay sim.Tick, flowID, dstMAC uint64, bytes uint32) {
	w.Switch.engine.Schedule(delay, func() { w.Switch.Ingress(w.Port, flowID, dstMAC, bytes) })
}
