// Package cpu models PARD's request sources: timing CPU cores with DS-id
// tag registers. A core executes a workload generator's operation stream
// — compute bursts, loads/stores through its private L1 toward the shared
// LLC and DRAM, disk operations toward the I/O bridge — tagging every
// packet it issues with its tag register (paper §3 mechanism 1).
//
// The paper simulates 4-issue out-of-order x86 cores; here a core is
// in-order with blocking loads by default, which preserves what the
// experiments measure (shared-resource contention and its control)
// while keeping the model analyzable; Core.Window optionally allows
// several memory operations in flight, approximating an OoO window.
// The substitution is recorded in DESIGN.md.
package cpu

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Core is one CPU core.
type Core struct {
	ID  int
	Tag core.TagRegister

	// Window is the number of memory operations the core may keep in
	// flight before stalling — a coarse model of an out-of-order
	// window (the paper's cores are 4-issue OoO). 0 or 1 is fully
	// blocking, the calibrated default.
	Window int

	engine *sim.Engine
	clock  *sim.Clock
	ids    *core.IDSource

	mem core.Target // L1 cache
	io  core.Target // I/O bridge for disk ops; may be nil

	gen     workload.Generator
	running bool
	stopped bool

	// Prebound callbacks: closing over c per packet allocates; binding
	// once here keeps the issue/complete loop allocation-free. The core
	// schedules its own step as a sim.Eventer (RunEvent).
	memDoneFn func(*core.Packet)
	ioDoneFn  func(*core.Packet)

	// Flight-recorder hop (nil rec disables; every rec call is nil-safe).
	rec *trace.Recorder
	hop int

	outstanding int
	waiting     bool
	waitStart   sim.Tick

	// HandlerCycles is the cost of servicing one delivered interrupt
	// (vector dispatch + handler body). 0 means 2000 cycles (~1 µs).
	HandlerCycles uint64
	pendingIntr   uint64

	// Accounting, in ticks.
	startAt    sim.Tick
	BusyTicks  sim.Tick // compute
	StallTicks sim.Tick // blocked on memory or I/O
	IdleTicks  sim.Tick // no work available

	Loads, Stores, DiskOps, ComputeOps uint64
	InterruptCount                     uint64
}

// New builds a core. clock is the core's cycle domain (2 GHz in Table 2).
func New(id int, clock *sim.Clock, ids *core.IDSource, mem, io core.Target) *Core {
	c := &Core{
		ID:     id,
		engine: clock.Engine(),
		clock:  clock,
		ids:    ids,
		mem:    mem,
		io:     io,
	}
	//pardlint:hotpath prebound memory-completion callback
	c.memDoneFn = func(*core.Packet) {
		c.outstanding--
		if c.waiting {
			c.waiting = false
			c.StallTicks += c.engine.Now() - c.waitStart
			c.clock.ScheduleCycles(1, c)
		}
	}
	//pardlint:hotpath prebound I/O-completion callback
	c.ioDoneFn = func(done *core.Packet) {
		c.StallTicks += done.Latency()
		c.clock.ScheduleCycles(1, c)
	}
	return c
}

// AttachRecorder wires the ICN flight recorder into the issue path and
// returns the hop id ("cpuN"). The core only ever issues packets, so it
// is a trace source, never a span. Call before traffic.
func (c *Core) AttachRecorder(r *trace.Recorder) int {
	c.rec = r
	c.hop = r.RegisterHop(fmt.Sprintf("cpu%d", c.ID))
	return c.hop
}

// Run starts executing gen. A core runs one workload at a time.
func (c *Core) Run(gen workload.Generator) {
	if c.running {
		panic(fmt.Sprintf("cpu: core %d already running", c.ID))
	}
	c.gen = gen
	c.running = true
	c.stopped = false
	c.startAt = c.engine.Now()
	c.clock.ScheduleCycles(0, c)
}

// Stop halts the core after the current operation.
func (c *Core) Stop() { c.stopped = true }

// Running reports whether a workload is executing.
func (c *Core) Running() bool { return c.running }

// Utilization returns the busy (compute + stall) fraction of wall time
// since Run, the quantity Figure 8's "CPU utilization" aggregates.
func (c *Core) Utilization() float64 {
	total := c.BusyTicks + c.StallTicks + c.IdleTicks
	if total == 0 {
		return 0
	}
	return float64(c.BusyTicks+c.StallTicks) / float64(total)
}

// Interrupt delivers an APIC interrupt: the core pays HandlerCycles of
// handler execution at its next scheduling point before resuming the
// workload.
func (c *Core) Interrupt(vector uint8) {
	c.InterruptCount++
	h := c.HandlerCycles
	if h == 0 {
		h = 2000
	}
	c.pendingIntr += h
}

// RunEvent implements sim.Eventer: it runs one scheduling point of the
// core's operation stream.
//
//pardlint:hotpath per-cycle core step
func (c *Core) RunEvent() {
	if !c.running {
		return
	}
	if c.stopped {
		c.running = false
		return
	}
	if c.pendingIntr > 0 {
		n := c.pendingIntr
		c.pendingIntr = 0
		c.BusyTicks += c.clock.Cycles(n)
		c.clock.ScheduleCycles(n, c)
		return
	}
	op := c.gen.Next(c.engine.Now())
	switch op.Kind {
	case workload.OpCompute:
		n := op.Cycles
		if n == 0 {
			n = 1
		}
		c.ComputeOps++
		c.BusyTicks += c.clock.Cycles(n)
		c.clock.ScheduleCycles(n, c)

	case workload.OpIdle:
		n := op.Cycles
		if n == 0 {
			n = 1
		}
		c.IdleTicks += c.clock.Cycles(n)
		c.clock.ScheduleCycles(n, c)

	case workload.OpLoad, workload.OpStore:
		kind := core.KindMemRead
		if op.Kind == workload.OpStore {
			kind = core.KindMemWrite
			c.Stores++
		} else {
			c.Loads++
		}
		window := c.Window
		if window < 1 {
			window = 1
		}
		p := core.NewPacket(c.ids, kind, c.Tag.Get(), op.Addr, 64, c.engine.Now())
		p.OnDone = c.memDoneFn
		c.rec.Begin(c.hop, p)
		c.outstanding++
		c.mem.Request(p)
		if c.outstanding < window {
			// Window slack: overlap the access with further work.
			c.clock.ScheduleCycles(1, c)
		} else {
			c.waiting = true
			c.waitStart = c.engine.Now()
		}

	case workload.OpDiskRead, workload.OpDiskWrite:
		if c.io == nil {
			panic(fmt.Sprintf("cpu: core %d issued a disk op with no I/O path", c.ID))
		}
		kind := core.KindPIORead
		if op.Kind == workload.OpDiskWrite {
			kind = core.KindPIOWrite
		}
		c.DiskOps++
		p := core.NewPacket(c.ids, kind, c.Tag.Get(), op.Addr, op.Bytes, c.engine.Now())
		p.OnDone = c.ioDoneFn
		c.rec.Begin(c.hop, p)
		c.io.Request(p)

	case workload.OpDone:
		c.running = false

	default:
		panic(fmt.Sprintf("cpu: core %d: unknown op kind %d", c.ID, op.Kind))
	}
}
