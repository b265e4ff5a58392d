// Package xbar models the intra-computer-network interconnect between
// the private L1s and the shared LLC — the crossbar of the paper's
// OpenSPARC T1 RTL (Figure 1 shows the interconnect as an ICN hop; the
// tag registers' values are "propagated to LLC, crossbar and memory
// controller", §6). Like every shared resource in PARD it carries a
// control plane: per-DS-id weighted round-robin arbitration over the
// single grant port, with queue-delay statistics and triggers.
package xbar

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Config describes the crossbar.
type Config struct {
	Name    string
	Latency uint64 // traversal cycles once granted

	TriggerSlots   int
	SampleInterval sim.Tick // 0 means core.DefaultSampleInterval
}

// DefaultConfig returns a one-cycle crossbar.
func DefaultConfig() Config {
	return Config{Name: "xbar", Latency: 1}
}

// Control-plane columns.
const (
	ParamWeight = "weight" // WRR grants per round; default 1

	StatFwdCnt  = "fwd_cnt"
	StatAvgQLat = "avg_qlat" // windowed mean queue delay, 0.1-cycle units
)

// Column indices of the crossbar plane's parameter and statistics
// tables.
const colWeight = 0

const (
	colFwdCnt = iota
	colAvgQLat
)

type entry struct {
	pkt *core.Packet
	enq sim.Tick
}

// flow is one DS-id's arbitration state. inRing marks a DS-id on the
// WRR ring, whose queue may be empty until the arbiter next visits it.
type flow struct {
	q      []entry
	inRing bool
}

// Crossbar arbitrates tagged packets onto one downstream port.
type Crossbar struct {
	cfg    Config
	engine *sim.Engine
	clock  *sim.Clock
	out    core.Target

	plane *core.Plane

	flows   []flow // indexed by DS-id
	ring    []core.DSID
	cursor  int
	credits uint64
	waiting int // packets queued across all flows

	// port grants one packet per crossbar cycle while packets wait.
	port *sim.Ticker

	// Prebound forward callback so grants never allocate.
	fwdFn func(*core.Packet)

	// Flight-recorder hop (nil rec disables; every rec call is nil-safe).
	rec *trace.Recorder
	hop int

	Granted uint64
}

// New builds a crossbar whose grants forward to out.
func New(e *sim.Engine, clock *sim.Clock, cfg Config, out core.Target) *Crossbar {
	if cfg.TriggerSlots == 0 {
		cfg.TriggerSlots = 64
	}
	if cfg.Latency == 0 {
		cfg.Latency = 1
	}
	x := &Crossbar{
		cfg:    cfg,
		engine: e,
		clock:  clock,
		out:    out,
	}
	x.port = sim.NewTicker(e, clock.Period(), x)
	//pardlint:hotpath prebound post-traversal forward callback
	x.fwdFn = func(p *core.Packet) {
		x.rec.Leave(x.hop, p)
		x.out.Request(p)
	}
	params := [...]core.Column{
		colWeight: {Name: ParamWeight, Writable: true, Default: 1},
	}
	stats := [...]core.Column{
		colFwdCnt:  {Name: StatFwdCnt},
		colAvgQLat: {Name: StatAvgQLat, Window: core.WindowMean, Scale: 10},
	}
	x.plane = core.NewPlane(e, "XBAR_CP", core.PlaneTypeBridge,
		core.NewTable(params[:]...), core.NewTable(stats[:]...), cfg.TriggerSlots)
	x.plane.Sample(cfg.SampleInterval)
	return x
}

// Plane returns the crossbar control plane.
func (x *Crossbar) Plane() *core.Plane { return x.plane }

// AttachRecorder wires the ICN flight recorder into the arbitration
// path under the configured name and returns the hop id. Call before
// traffic.
func (x *Crossbar) AttachRecorder(r *trace.Recorder) int {
	x.rec = r
	x.hop = r.RegisterHop(x.cfg.Name)
	return x.hop
}

// Request enqueues a packet for arbitration.
func (x *Crossbar) Request(p *core.Packet) {
	x.rec.Enter(x.hop, p)
	x.flows = core.GrowTo(x.flows, p.DSID)
	f := &x.flows[p.DSID]
	if !f.inRing {
		f.inRing = true
		x.ring = append(x.ring, p.DSID)
	}
	f.q = append(f.q, entry{pkt: p, enq: x.engine.Now()})
	x.waiting++
	x.port.Arm()
}

func (x *Crossbar) weight(ds core.DSID) uint64 {
	w := x.plane.ParamAt(ds, colWeight)
	if w == 0 {
		w = 1
	}
	return w
}

// Poll grants one packet per cycle under weighted round robin: the
// current DS-id keeps the port for weight grants per round. It is the
// port ticker's client and asks for the next cycle while packets wait.
// A grant always succeeds when one is possible, so the port never
// sleeps.
//
// Hot path: hotalloc reaches Poll from Engine.Step through the
// devirtualized sim.Poller call.
func (x *Crossbar) Poll() bool {
	// Find the next DS-id with work, consuming credits. Each pass
	// either drops a drained DS-id from the ring or grants, so the
	// loop ends.
	for len(x.ring) > 0 {
		x.cursor %= len(x.ring)
		ds := x.ring[x.cursor]
		f := &x.flows[ds]
		if len(f.q) == 0 {
			x.ring = append(x.ring[:x.cursor], x.ring[x.cursor+1:]...)
			*f = flow{}
			x.credits = 0
			continue
		}
		if x.credits == 0 {
			x.credits = x.weight(ds)
		}
		e := f.q[0]
		f.q = f.q[1:]
		x.waiting--
		x.credits--
		if x.credits == 0 {
			x.cursor++
		}
		x.forward(ds, e)
		return x.waiting > 0
	}
	return false
}

func (x *Crossbar) forward(ds core.DSID, e entry) {
	x.Granted++
	x.plane.AddStatAt(ds, colFwdCnt, 1)
	x.plane.ObserveAt(ds, colAvgQLat, uint64((x.engine.Now()-e.enq)/x.clock.Period()), 1)
	// WRR arbitration wait is over; the traversal that follows is service.
	x.rec.Service(x.hop, e.pkt)
	e.pkt.ScheduleCall(x.clock, x.cfg.Latency, x.fwdFn)
}

func (x *Crossbar) String() string {
	return fmt.Sprintf("%s: granted=%d pending=%d", x.cfg.Name, x.Granted, x.waiting)
}
