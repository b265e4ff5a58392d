package sim

// Clock converts between a component's cycle domain and engine ticks.
// PARD components run in different domains: CPU cores at 2 GHz, the DDR3
// PHY at 800 MHz (tCK = 1.25 ns) and the platform resource manager at
// 100 MHz.
type Clock struct {
	engine *Engine
	period Tick
}

// NewClock returns a clock with the given period in ticks per cycle.
func NewClock(e *Engine, period Tick) *Clock {
	if period == 0 {
		panic("sim: clock period must be positive")
	}
	return &Clock{engine: e, period: period}
}

// Period returns ticks per cycle.
func (c *Clock) Period() Tick { return c.period }

// Cycles converts a cycle count to ticks.
func (c *Clock) Cycles(n uint64) Tick { return Tick(n) * c.period }

// ToCycles converts a tick duration to whole cycles (floor).
func (c *Clock) ToCycles(t Tick) uint64 { return uint64(t / c.period) }

// Now returns the current time in this clock's cycles (floor).
func (c *Clock) Now() uint64 { return uint64(c.engine.Now() / c.period) }

// NextEdge returns the earliest tick >= the current time that lies on a
// cycle boundary of this clock.
func (c *Clock) NextEdge() Tick { return alignUp(c.engine.Now(), c.period) }

// ScheduleCycles queues ev.RunEvent to run n cycles from now, aligned
// to the next cycle edge so that same-domain events stay
// phase-coherent.
func (c *Clock) ScheduleCycles(n uint64, ev Eventer) {
	c.engine.AtEventer(c.NextEdge()+c.Cycles(n), ev)
}

// Engine returns the underlying engine.
func (c *Clock) Engine() *Engine { return c.engine }
