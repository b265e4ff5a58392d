package sim

import (
	"testing"
	"testing/quick"
)

func TestClockConversions(t *testing.T) {
	e := NewEngine()
	cpu := NewClock(e, 500) // 2 GHz
	if cpu.Cycles(4) != 2000 {
		t.Fatalf("Cycles(4) = %d, want 2000", cpu.Cycles(4))
	}
	if cpu.ToCycles(2600) != 5 {
		t.Fatalf("ToCycles(2600) = %d, want 5", cpu.ToCycles(2600))
	}
}

func TestClockNextEdge(t *testing.T) {
	e := NewEngine()
	c := NewClock(e, 1250) // DDR3-1600 tCK
	if got := c.NextEdge(); got != 0 {
		t.Fatalf("NextEdge at t=0 = %d, want 0", got)
	}
	e.Schedule(300, func() {
		if got := c.NextEdge(); got != 1250 {
			t.Errorf("NextEdge at t=300 = %d, want 1250", got)
		}
	})
	e.Schedule(1250, func() {
		if got := c.NextEdge(); got != 1250 {
			t.Errorf("NextEdge at t=1250 = %d, want 1250", got)
		}
	})
	e.Drain(0)
}

func TestScheduleCyclesAligned(t *testing.T) {
	e := NewEngine()
	c := NewClock(e, 1000)
	var ranAt Tick
	e.Schedule(123, func() {
		c.ScheduleCycles(2, funcEvent(func() { ranAt = e.Now() }))
	})
	e.Drain(0)
	if ranAt != 3000 {
		t.Fatalf("cycle-aligned event ran at %d, want 3000", ranAt)
	}
	if ranAt%c.Period() != 0 {
		t.Fatalf("event not on a cycle edge: %d", ranAt)
	}
}

func TestZeroPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewClock(0) did not panic")
		}
	}()
	NewClock(NewEngine(), 0)
}

// Property: NextEdge is always >= now, on a period boundary, and less than
// one period ahead.
func TestPropertyNextEdge(t *testing.T) {
	f := func(now uint32, period uint16) bool {
		if period == 0 {
			return true
		}
		e := NewEngine()
		e.now = Tick(now)
		c := NewClock(e, Tick(period))
		edge := c.NextEdge()
		return edge >= e.Now() &&
			edge%Tick(period) == 0 &&
			edge-e.Now() < Tick(period)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
