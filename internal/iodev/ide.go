package iodev

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// IDEConfig describes the disk controller. Table 2's server has a
// 4-channel IDE controller with 8 disks; the model aggregates them into
// one service queue with the combined raw bandwidth, which is the level
// at which the paper's disk-isolation experiment (Figure 10) operates.
type IDEConfig struct {
	Name        string
	BytesPerSec uint64 // aggregate raw disk bandwidth
	Channels    int
	Disks       int

	TriggerSlots   int
	SampleInterval sim.Tick // 0 means core.DefaultSampleInterval

	// InterruptVector, when nonzero, raises a tagged completion
	// interrupt through the APIC after each transfer.
	InterruptVector uint8

	// QueueDepth > 0 models OS-buffered writes: a request is
	// acknowledged to the issuing core as soon as it fits within the
	// per-LDom buffer of QueueDepth outstanding transfers, while the
	// physical transfer completes later under the DRR schedule. 0 is
	// fully synchronous (the core blocks for the whole transfer).
	QueueDepth int
}

// DefaultIDEConfig returns Table 2's disk subsystem.
func DefaultIDEConfig() IDEConfig {
	return IDEConfig{
		Name:            "ide",
		BytesPerSec:     200 << 20, // 8 disks x ~25 MB/s
		Channels:        4,
		Disks:           8,
		InterruptVector: 14,
	}
}

// IDE control-plane columns (Table 3: disk bandwidth).
const (
	ParamBandwidth = "bandwidth" // percent quota; 0 = fair share of residual

	StatBandwidth = "bandwidth"  // windowed MB/s
	StatServBytes = "serv_bytes" // total bytes served
)

// drrQuantumPerWeight is the deficit added per weight point per round.
const drrQuantumPerWeight = 8 << 10

// SchedDRR is the IDE plane's scheduling algorithm (the .pard
// `schedule ide <algo>` catalogue): deficit round robin weighted by the
// bandwidth quotas.
const SchedDRR = "drr"

// IDE is the disk controller. Requests are PIO packets whose Size is
// the transfer length; completion follows the deficit-round-robin
// schedule weighted by each DS-id's bandwidth quota, and data moves via
// a tagged DMA engine.
type IDE struct {
	cfg    IDEConfig
	engine *sim.Engine
	ids    *core.IDSource
	dma    *DMAEngine
	apic   core.Target // may be nil

	plane *core.Plane

	queues  map[core.DSID][]*pendingReq
	ring    []core.DSID
	cursor  int
	deficit map[core.DSID]uint64
	busy    bool

	ServedBytes uint64
	ServedOps   uint64

	// Flight-recorder hop (nil rec disables; every rec call is nil-safe).
	rec *trace.Recorder
	hop int
}

// NewIDE builds the controller. mem receives DMA traffic; apic (optional)
// receives completion interrupts.
func NewIDE(e *sim.Engine, ids *core.IDSource, cfg IDEConfig, mem core.Target, apic core.Target) *IDE {
	if cfg.BytesPerSec == 0 {
		panic("iodev: IDE bandwidth must be positive")
	}
	if cfg.TriggerSlots == 0 {
		cfg.TriggerSlots = 64
	}
	d := &IDE{
		cfg:     cfg,
		engine:  e,
		ids:     ids,
		dma:     NewDMAEngine(e, ids, mem),
		apic:    apic,
		queues:  make(map[core.DSID][]*pendingReq),
		deficit: make(map[core.DSID]uint64),
	}
	params := core.NewTable(
		core.Column{Name: ParamBandwidth, Writable: true, Default: 0},
	)
	stats := core.NewTable(
		core.Column{Name: StatBandwidth, Window: core.WindowMBps},
		core.Column{Name: StatServBytes},
	)
	d.plane = core.NewPlane(e, "IDE_CP", core.PlaneTypeIDE, params, stats, cfg.TriggerSlots)
	d.plane.SetSchedulerHook([]string{SchedDRR}, nil)
	d.plane.Sample(cfg.SampleInterval)
	return d
}

// Plane returns the IDE control plane.
func (d *IDE) Plane() *core.Plane { return d.plane }

// AttachRecorder wires the ICN flight recorder into the transfer path
// under the configured name and returns the hop id. Call before traffic.
func (d *IDE) AttachRecorder(r *trace.Recorder) int {
	d.rec = r
	d.hop = r.RegisterHop(d.cfg.Name)
	return d.hop
}

// Config returns the controller configuration.
func (d *IDE) Config() IDEConfig { return d.cfg }

// pendingReq is one queued transfer; acked means the issuing core has
// already been released (buffered write semantics). The transfer
// parameters are copied out of the packet at enqueue time: an acked
// packet has completed, and completed pooled packets may be recycled, so
// the queue must never read through pkt after Complete (pkt is nil'd on
// ack to enforce this).
type pendingReq struct {
	pkt   *core.Packet // pending completion; nil once acked
	ds    core.DSID
	addr  uint64
	size  uint32
	read  bool // KindPIORead: disk-to-memory DMA
	acked bool
}

// Request enqueues a disk transfer.
func (d *IDE) Request(p *core.Packet) {
	if p.Kind != core.KindPIORead && p.Kind != core.KindPIOWrite {
		panic(fmt.Sprintf("iodev: IDE received %v", p.Kind))
	}
	d.rec.Enter(d.hop, p)
	if _, ok := d.queues[p.DSID]; !ok {
		d.ring = append(d.ring, p.DSID)
	}
	//pardlint:ignore hotalloc one queue entry per disk op: disk ops arrive at millisecond scale, not the per-cycle memory path
	entry := &pendingReq{
		pkt:  p,
		ds:   p.DSID,
		addr: p.Addr,
		size: p.Size,
		read: p.Kind == core.KindPIORead,
	}
	d.queues[p.DSID] = append(d.queues[p.DSID], entry)
	if d.cfg.QueueDepth > 0 && len(d.queues[p.DSID]) <= d.cfg.QueueDepth {
		entry.acked = true
		entry.pkt = nil
		d.rec.Finish(d.hop, p)
		p.Complete(d.engine.Now())
	}
	d.serveNext()
}

// weight returns ds's DRR weight: its explicit quota, or a fair share
// of the residual (100 - sum of explicit quotas) among unset DS-ids.
// Two quota-less LDoms therefore split the disk 50/50, and
// "echo 80 > .../ldom0/parameters/bandwidth" moves the split to 80/20
// exactly as in Figure 10.
//
// Oversubscription is well-defined: quotas are DRR weights, so when
// explicit quotas (plus the floor weight of 5 that every unset LDom
// keeps) sum past 100, flows share the disk in proportion to their
// weights — two 80s behave as 50/50 — rather than promising absolute
// percentages. A single quota is clamped to 100: no flow can weigh
// more than the whole disk.
func (d *IDE) weight(ds core.DSID) uint64 {
	q := d.plane.Param(ds, ParamBandwidth)
	if q > 0 {
		if q > 100 {
			q = 100
		}
		return q
	}
	var explicit uint64
	unset := 0
	for _, other := range d.ring {
		oq := d.plane.Param(other, ParamBandwidth)
		if oq > 0 {
			explicit += oq
		} else {
			unset++
		}
	}
	residual := uint64(100)
	if explicit < residual {
		residual -= explicit
	} else {
		residual = 0
	}
	w := residual / uint64(unset)
	if w < 5 {
		w = 5 // never starve an unset LDom completely
	}
	return w
}

// ringIndex returns ds's position in the DRR ring, or -1.
func (d *IDE) ringIndex(ds core.DSID) int {
	for i, r := range d.ring {
		if r == ds {
			return i
		}
	}
	return -1
}

// virtualTime is the DRR virtual finish time of ds's head-of-line
// request of the given size: the round-robin visit (counted from the
// cursor) at which the pointer would serve it, with each skipped visit
// granting one weight(ds)*quantum top-up. v = rounds*R + position is
// unique per flow — positions are distinct — so argmin v is the DRR
// winner.
func (d *IDE) virtualTime(ds core.DSID, size uint64) uint64 {
	R := len(d.ring)
	p := uint64((d.ringIndex(ds) - d.cursor + R) % R)
	var n uint64
	if def := d.deficit[ds]; def < size {
		grant := d.weight(ds) * drrQuantumPerWeight
		n = (size - def + grant - 1) / grant // ceil-division deficit grant
	}
	return n*uint64(R) + p
}

// serveNext runs the DRR scheduler when the disk is idle. The winner is
// computed in closed form (argmin virtual finish time) instead of the
// old bounded visit loop, which capped top-ups at 64*len(ring) rounds
// and could exit without serving anything when a max-size request met
// the floor weight — silently stalling the disk until the next enqueue.
func (d *IDE) serveNext() {
	if d.busy {
		return
	}
	// Idle flows leave the ring and forfeit their deficit — the map
	// entry included, or DS-id churn grows the deficit map without
	// bound.
	for i := 0; i < len(d.ring); {
		ds := d.ring[i]
		if len(d.queues[ds]) == 0 {
			delete(d.deficit, ds)
			delete(d.queues, ds)
			d.ring = append(d.ring[:i], d.ring[i+1:]...)
			if d.cursor > i {
				d.cursor--
			}
		} else {
			i++
		}
	}
	if len(d.ring) == 0 {
		d.cursor = 0
		return
	}
	d.cursor %= len(d.ring)

	best := -1
	var vStar uint64
	for i, ds := range d.ring {
		v := d.virtualTime(ds, uint64(d.queues[ds][0].size))
		if best == -1 || v < vStar {
			best, vStar = i, v
		}
	}
	winner := d.queues[d.ring[best]][0]
	// Replay the grant rounds the pointer passes through before the
	// winner serves: every flow it visits strictly before the winner's
	// virtual finish time receives one quantum per visit — exactly what
	// the incremental loop would have granted, winner included.
	R := len(d.ring)
	for i, ds := range d.ring {
		p := uint64((i - d.cursor + R) % R)
		if p < vStar {
			visits := (vStar - p + uint64(R) - 1) / uint64(R)
			d.deficit[ds] += visits * d.weight(ds) * drrQuantumPerWeight
		}
	}
	d.cursor = best
	d.queues[winner.ds] = d.queues[winner.ds][1:]
	d.deficit[winner.ds] -= uint64(winner.size)
	d.serve(winner)
}

// serve models the disk transfer itself, then DMAs the data and
// releases the request.
func (d *IDE) serve(entry *pendingReq) {
	d.busy = true
	if entry.pkt != nil {
		// DRR wait is over for the un-acked submitter; the transfer that
		// follows is service time.
		d.rec.Service(d.hop, entry.pkt)
	}
	dur := sim.Tick(uint64(entry.size) * uint64(sim.Second) / d.cfg.BytesPerSec)
	if dur == 0 {
		dur = 1
	}
	//pardlint:ignore hotalloc one completion closure per disk transfer, amortized against the millisecond-scale transfer it tails
	d.engine.Schedule(dur, func() {
		d.busy = false
		d.ServedBytes += uint64(entry.size)
		d.ServedOps++
		d.plane.AddStat(entry.ds, StatServBytes, uint64(entry.size))
		d.plane.Observe(entry.ds, StatBandwidth, uint64(entry.size), 0)

		// Data movement: the DMA engine is programmed by this request's
		// DS-id and issues tagged memory traffic (paper §4.1).
		d.dma.Program(entry.ds)
		d.dma.Transfer(entry.addr, entry.size, entry.read, nil)

		if d.apic != nil && d.cfg.InterruptVector != 0 {
			intr := core.NewPacket(d.ids, core.KindInterrupt, entry.ds, 0, 0, d.engine.Now())
			intr.Vector = d.cfg.InterruptVector
			d.apic.Request(intr)
		}
		if !entry.acked {
			d.rec.Finish(d.hop, entry.pkt)
			entry.pkt.Complete(d.engine.Now())
			entry.pkt = nil
		}
		// A buffer slot freed: release the next blocked submitter.
		if d.cfg.QueueDepth > 0 {
			q := d.queues[entry.ds]
			n := len(q)
			if n > d.cfg.QueueDepth {
				n = d.cfg.QueueDepth
			}
			for i := 0; i < n; i++ {
				if !q[i].acked {
					q[i].acked = true
					pkt := q[i].pkt
					q[i].pkt = nil
					d.rec.Finish(d.hop, pkt)
					pkt.Complete(d.engine.Now())
					break
				}
			}
		}
		d.serveNext()
	})
}
