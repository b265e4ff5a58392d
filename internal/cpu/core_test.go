package cpu

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// echoTarget completes requests after a fixed delay and records tags.
type echoTarget struct {
	e     *sim.Engine
	delay sim.Tick
	tags  []core.DSID
	kinds []core.Kind
}

func (m *echoTarget) Request(p *core.Packet) {
	m.tags = append(m.tags, p.DSID)
	m.kinds = append(m.kinds, p.Kind)
	m.e.Schedule(m.delay, func() { p.Complete(m.e.Now()) })
}

func newCore(e *sim.Engine) (*Core, *echoTarget, *echoTarget) {
	mem := &echoTarget{e: e, delay: 10 * sim.Nanosecond}
	io := &echoTarget{e: e, delay: sim.Microsecond}
	c := New(0, sim.NewClock(e, 500), &core.IDSource{}, mem, io)
	return c, mem, io
}

func TestCoreRunsFiniteWorkload(t *testing.T) {
	e := sim.NewEngine()
	c, mem, _ := newCore(e)
	c.Tag.Set(5)
	c.Run(&workload.Finite{Gen: &workload.Stream{Base: 0, Footprint: 1 << 16, Compute: 3}, N: 30})
	e.Drain(0)
	if c.Running() {
		t.Fatal("core still running after OpDone")
	}
	if c.Loads == 0 || c.Stores == 0 || c.ComputeOps == 0 {
		t.Fatalf("op mix: loads=%d stores=%d compute=%d", c.Loads, c.Stores, c.ComputeOps)
	}
	for _, ds := range mem.tags {
		if ds != 5 {
			t.Fatalf("packet tagged %v, want tag register value ds5", ds)
		}
	}
}

func TestCoreTagRegisterRetag(t *testing.T) {
	e := sim.NewEngine()
	c, mem, _ := newCore(e)
	c.Tag.Set(1)
	c.Run(&workload.Finite{Gen: &workload.Stream{Base: 0, Footprint: 1 << 16}, N: 6})
	e.Run(e.Now() + 40*sim.Nanosecond)
	c.Tag.Set(2) // PRM reassigns the core to another LDom
	e.Drain(0)
	var saw1, saw2 bool
	for _, ds := range mem.tags {
		switch ds {
		case 1:
			saw1 = true
		case 2:
			saw2 = true
		default:
			t.Fatalf("unexpected tag %v", ds)
		}
	}
	if !saw1 || !saw2 {
		t.Fatalf("tags before/after retag: saw1=%v saw2=%v (%v)", saw1, saw2, mem.tags)
	}
}

func TestCoreAccountsBusyAndStall(t *testing.T) {
	e := sim.NewEngine()
	c, _, _ := newCore(e)
	c.Run(&workload.Finite{Gen: &workload.Stream{Base: 0, Footprint: 1 << 16, Compute: 10}, N: 20})
	e.Drain(0)
	if c.BusyTicks == 0 {
		t.Fatal("no busy time accounted")
	}
	if c.StallTicks == 0 {
		t.Fatal("no stall time accounted for 10ns loads")
	}
	if c.Utilization() != 1.0 {
		t.Fatalf("utilization = %f for an always-busy workload", c.Utilization())
	}
}

func TestCoreIdleAccounting(t *testing.T) {
	e := sim.NewEngine()
	c, _, _ := newCore(e)
	// Memcached at tiny load: mostly idle.
	m := workload.NewMemcached(workload.MemcachedConfig{
		RPS: 1000, ComputeCycles: 10, Accesses: 1, FootprintBytes: 1 << 16, Seed: 1,
	})
	c.Run(m)
	e.Run(10 * sim.Millisecond)
	c.Stop()
	if c.IdleTicks == 0 {
		t.Fatal("no idle time at 1K RPS")
	}
	if u := c.Utilization(); u > 0.5 {
		t.Fatalf("utilization %f too high for 1K RPS", u)
	}
}

func TestCoreDiskOps(t *testing.T) {
	e := sim.NewEngine()
	c, _, io := newCore(e)
	c.Tag.Set(3)
	c.Run(&workload.DiskCopy{TotalBytes: 1 << 20, ChunkBytes: 256 << 10, Write: true})
	e.Drain(0)
	if c.DiskOps != 4 {
		t.Fatalf("DiskOps = %d, want 4", c.DiskOps)
	}
	for _, k := range io.kinds {
		if k != core.KindPIOWrite {
			t.Fatalf("disk op kind %v", k)
		}
	}
}

func TestCoreDoubleRunPanics(t *testing.T) {
	e := sim.NewEngine()
	c, _, _ := newCore(e)
	c.Run(&workload.Spin{})
	defer func() {
		if recover() == nil {
			t.Fatal("second Run did not panic")
		}
	}()
	c.Run(&workload.Spin{})
}

func TestCoreStop(t *testing.T) {
	e := sim.NewEngine()
	c, _, _ := newCore(e)
	c.Run(&workload.Spin{Quantum: 10})
	e.Run(sim.Microsecond)
	c.Stop()
	e.Run(2 * sim.Microsecond)
	if c.Running() {
		t.Fatal("core running after Stop")
	}
	// A stopped core can run a new workload.
	c.Run(&workload.Finite{Gen: &workload.Spin{}, N: 1})
	e.Drain(0)
}

// idler is a generator that only idles, in short quanta so interrupt
// delivery latency stays small.
type idler struct{}

func (idler) Next(sim.Tick) workload.Op {
	return workload.Op{Kind: workload.OpIdle, Cycles: 100}
}

func TestCoreInterruptChargesHandlerTime(t *testing.T) {
	e := sim.NewEngine()
	c, _, _ := newCore(e)
	c.HandlerCycles = 1000
	c.Run(idler{})
	e.Run(10 * sim.Microsecond)
	if c.BusyTicks != 0 {
		t.Fatalf("idler accumulated busy time %v", c.BusyTicks)
	}
	for i := 0; i < 3; i++ {
		c.Interrupt(14)
	}
	e.Run(e.Now() + 10*sim.Microsecond)
	if c.InterruptCount != 3 {
		t.Fatalf("InterruptCount = %d", c.InterruptCount)
	}
	// 3 interrupts x 1000 cycles = 1.5 µs of handler execution, the
	// only busy time an idling core can have.
	if want := 1500 * sim.Nanosecond; c.BusyTicks != want {
		t.Fatalf("handler busy time = %v, want %v", c.BusyTicks, want)
	}
	c.Stop()
}

func TestCoreInterruptDefaultCost(t *testing.T) {
	e := sim.NewEngine()
	c, _, _ := newCore(e)
	c.Run(&workload.Spin{Quantum: 10})
	c.Interrupt(11)
	e.Run(5 * sim.Microsecond)
	if c.InterruptCount != 1 {
		t.Fatal("interrupt not counted")
	}
	c.Stop()
}

func TestCoreDiskWithoutIOPanics(t *testing.T) {
	e := sim.NewEngine()
	mem := &echoTarget{e: e, delay: sim.Nanosecond}
	c := New(0, sim.NewClock(e, 500), &core.IDSource{}, mem, nil)
	c.Run(&workload.DiskCopy{TotalBytes: 64, ChunkBytes: 64, Write: true})
	defer func() {
		if recover() == nil {
			t.Fatal("disk op without I/O path did not panic")
		}
	}()
	e.Drain(0)
}

// pure-load generator for window tests.
type loader struct {
	n, max int
}

func (l *loader) Next(sim.Tick) workload.Op {
	if l.n >= l.max {
		return workload.Op{Kind: workload.OpDone}
	}
	l.n++
	return workload.Op{Kind: workload.OpLoad, Addr: uint64(l.n) * 64}
}

func TestWindowOverlapsLoads(t *testing.T) {
	run := func(window int) sim.Tick {
		e := sim.NewEngine()
		mem := &echoTarget{e: e, delay: 100 * sim.Nanosecond}
		c := New(0, sim.NewClock(e, 500), &core.IDSource{}, mem, nil)
		c.Window = window
		c.Run(&loader{max: 200})
		e.StepUntil(func() bool { return !c.Running() })
		return e.Now()
	}
	blocking := run(1)
	windowed := run(4)
	speedup := float64(blocking) / float64(windowed)
	if speedup < 2.5 {
		t.Fatalf("window=4 speedup %.2fx over blocking, want >2.5x", speedup)
	}
	// Default (0) behaves like blocking.
	if d := run(0); d != blocking {
		t.Fatalf("Window=0 ran in %v, blocking in %v", d, blocking)
	}
}

func TestWindowStallAccountingBounded(t *testing.T) {
	e := sim.NewEngine()
	mem := &echoTarget{e: e, delay: 50 * sim.Nanosecond}
	c := New(0, sim.NewClock(e, 500), &core.IDSource{}, mem, nil)
	c.Window = 4
	c.Run(&loader{max: 100})
	e.StepUntil(func() bool { return !c.Running() })
	wall := e.Now()
	if c.StallTicks > wall {
		t.Fatalf("stall %v exceeds wall time %v", c.StallTicks, wall)
	}
	if c.Loads != 100 {
		t.Fatalf("loads = %d", c.Loads)
	}
}

// callTarget completes each request a fixed number of cycles later
// through the packet's own call slot, as the caches do.
type callTarget struct {
	clk    *sim.Clock
	cycles uint64
	done   func(*core.Packet)
}

func newCallTarget(clk *sim.Clock, cycles uint64) *callTarget {
	m := &callTarget{clk: clk, cycles: cycles}
	m.done = func(p *core.Packet) { p.Complete(clk.Engine().Now()) }
	return m
}

func (m *callTarget) Request(p *core.Packet) { p.ScheduleCall(m.clk, m.cycles, m.done) }

// A core schedules itself: its steps and its packets' completions run
// through the engine as Eventers, so a STREAM core against pooled
// packets allocates nothing once warm.
func TestCoreStepZeroAlloc(t *testing.T) {
	e := sim.NewEngine()
	clk := sim.NewClock(e, 500)
	c := New(0, clk, core.NewIDSource(), newCallTarget(clk, 20), nil)
	c.Window = 2
	c.Run(&workload.Stream{Footprint: 1 << 16, Compute: 3})
	for i := 0; i < 1000; i++ {
		e.Step()
	}
	// AllocsPerRun truncates its average, so count per 100 events.
	if a := testing.AllocsPerRun(100, func() {
		for i := 0; i < 100; i++ {
			e.Step()
		}
	}); a != 0 {
		t.Fatalf("core loop allocated %.0f times per 100 events, want 0", a)
	}
	if c.Loads == 0 || c.Stores == 0 || c.ComputeOps == 0 {
		t.Fatalf("op mix: loads=%d stores=%d compute=%d", c.Loads, c.Stores, c.ComputeOps)
	}
}
