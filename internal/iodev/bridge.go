package iodev

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Bridge is the I/O bridge: it routes PIO requests from cores to devices
// by address window and funnels device DMA toward the memory controller,
// carrying its own control plane ('B') that accounts per-DS-id PIO and
// DMA traffic (paper §4.2: "we add control planes into I/O bridge and
// IDE").
type Bridge struct {
	engine *sim.Engine
	mem    core.Target

	plane   *core.Plane
	windows []window

	// Latency a PIO request pays crossing the bridge.
	PIOLatency sim.Tick

	// Prebound unclaimed-PIO completion: finishes the span and completes
	// the packet without a per-request closure.
	finishFn func(*core.Packet)

	Routed    uint64
	Unclaimed uint64

	// Flight-recorder hop (nil rec disables; every rec call is nil-safe).
	rec *trace.Recorder
	hop int
}

type window struct {
	base, size uint64
	dev        core.Target
	name       string
}

// Bridge control-plane columns.
const (
	ParamDMALimit = "dma_limit" // reserved: per-DS-id DMA throttle (MB/s), 0 = off

	StatPIOCnt   = "pio_cnt"
	StatDMABytes = "dma_bytes"
)

// Column indices of the bridge plane's parameter and statistics
// tables.
const bridgeColDMALimit = 0

const (
	bridgeColPIOCnt = iota
	bridgeColDMABytes
)

// NewBridge builds the bridge. mem receives DMA traffic.
func NewBridge(e *sim.Engine, mem core.Target) *Bridge {
	params := [...]core.Column{
		bridgeColDMALimit: {Name: ParamDMALimit, Writable: true},
	}
	stats := [...]core.Column{
		bridgeColPIOCnt:   {Name: StatPIOCnt},
		bridgeColDMABytes: {Name: StatDMABytes},
	}
	b := &Bridge{
		engine: e,
		mem:    mem,
		plane: core.NewPlane(e, "BRIDGE_CP", core.PlaneTypeBridge,
			core.NewTable(params[:]...), core.NewTable(stats[:]...), 64),
		PIOLatency: 200 * sim.Nanosecond,
	}
	//pardlint:hotpath prebound unclaimed-PIO completion callback
	b.finishFn = func(p *core.Packet) {
		b.rec.Finish(b.hop, p)
		p.Complete(b.engine.Now())
	}
	return b
}

// Plane returns the bridge control plane.
func (b *Bridge) Plane() *core.Plane { return b.plane }

// AttachRecorder wires the ICN flight recorder into the PIO routing
// path as hop "bridge" and returns the hop id. Call before traffic.
func (b *Bridge) AttachRecorder(r *trace.Recorder) int {
	b.rec = r
	b.hop = r.RegisterHop("bridge")
	return b.hop
}

// Attach maps [base, base+size) to dev. Windows must not overlap.
func (b *Bridge) Attach(name string, base, size uint64, dev core.Target) error {
	for _, w := range b.windows {
		if base < w.base+w.size && w.base < base+size {
			return fmt.Errorf("iodev: window %q overlaps %q", name, w.name)
		}
	}
	b.windows = append(b.windows, window{base: base, size: size, dev: dev, name: name})
	sort.Slice(b.windows, func(i, j int) bool { return b.windows[i].base < b.windows[j].base })
	return nil
}

// Request routes a PIO packet to the device owning its address.
func (b *Bridge) Request(p *core.Packet) {
	if p.Kind != core.KindPIORead && p.Kind != core.KindPIOWrite {
		panic(fmt.Sprintf("iodev: bridge received %v on the PIO path", p.Kind))
	}
	b.plane.AddStatAt(p.DSID, bridgeColPIOCnt, 1)
	b.rec.Enter(b.hop, p)
	for _, w := range b.windows {
		if p.Addr >= w.base && p.Addr < w.base+w.size {
			b.Routed++
			dev := w.dev
			// Rebase the device-relative address.
			q := *p
			q.Addr = p.Addr - w.base
			q.OnDone = nil
			fwd := &q
			//pardlint:ignore hotalloc PIO routing runs at disk-op rate: one completion closure per request, amortized against millisecond-scale device service
			fwd.OnDone = func(*core.Packet) { p.Complete(b.engine.Now()) }
			//pardlint:ignore hotalloc PIO routing runs at disk-op rate: one forwarding closure per request, amortized against millisecond-scale device service
			b.engine.Schedule(b.PIOLatency, func() {
				// fwd carries p's ID, so this closes the span Enter
				// opened above before the device opens its own.
				b.rec.Leave(b.hop, fwd)
				dev.Request(fwd)
			})
			return
		}
	}
	b.Unclaimed++
	// Unclaimed PIO completes with no effect, like a read of an
	// unmapped bus address.
	p.ScheduleCallAt(b.engine, b.engine.Now()+b.PIOLatency, b.finishFn)
}

// DMA forwards a device-originated memory packet, accounting its bytes
// to the packet's DS-id.
func (b *Bridge) DMA(p *core.Packet) {
	b.plane.AddStatAt(p.DSID, bridgeColDMABytes, uint64(p.Size))
	b.mem.Request(p)
}

type dmaPort struct{ b *Bridge }

func (d dmaPort) Request(p *core.Packet) { d.b.DMA(p) }

// DMATarget returns the port device DMA engines should use as their
// memory target, so the bridge accounts every DMA byte.
func (b *Bridge) DMATarget() core.Target { return dmaPort{b} }
