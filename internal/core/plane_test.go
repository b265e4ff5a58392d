package core

import (
	"testing"

	"repro/internal/sim"
)

func newTestPlane(e *sim.Engine) *Plane {
	params := NewTable(
		Column{Name: "waymask", Writable: true, Default: 0xFFFF},
	)
	stats := NewTable(
		Column{Name: "miss_rate"}, // 0.1% units
		Column{Name: "capacity"},
	)
	return NewPlane(e, "CACHE_CP", PlaneTypeCache, params, stats, 64)
}

func TestPlaneIdentity(t *testing.T) {
	p := newTestPlane(sim.NewEngine())
	if p.Ident() != "CACHE_CP" || p.Type() != PlaneTypeCache {
		t.Fatalf("ident/type = %q/%c", p.Ident(), p.Type())
	}
	if p.TriggerSlots() != 64 {
		t.Fatalf("TriggerSlots = %d, want 64", p.TriggerSlots())
	}
}

func TestPlaneLongIdentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("13-byte ident did not panic")
		}
	}()
	NewPlane(sim.NewEngine(), "THIRTEENBYTES", PlaneTypeCache, NewTable(), NewTable(), 1)
}

func TestPlaneParamStatHelpers(t *testing.T) {
	p := newTestPlane(sim.NewEngine())
	if got := p.Param(4, "waymask"); got != 0xFFFF {
		t.Fatalf("default Param = %#x", got)
	}
	p.Params().SetName(4, "waymask", 0x00FF)
	if got := p.Param(4, "waymask"); got != 0x00FF {
		t.Fatalf("Param after set = %#x", got)
	}
	p.AddStat(4, "capacity", 10)
	p.SubStat(4, "capacity", 3)
	if got := p.Stat(4, "capacity"); got != 7 {
		t.Fatalf("capacity = %d, want 7", got)
	}
}

func TestPlaneSetParam(t *testing.T) {
	p := newTestPlane(sim.NewEngine())
	p.SetParam(4, "waymask", 0x0F0F)
	if got := p.Param(4, "waymask"); got != 0x0F0F {
		t.Fatalf("Param after SetParam = %#x", got)
	}
	// Other rows keep reading the column default.
	if got := p.Param(5, "waymask"); got != 0xFFFF {
		t.Fatalf("unrelated row disturbed: %#x", got)
	}
}

func TestPlaneSetParamUnknownColumnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SetParam on unknown column did not panic")
		}
	}()
	newTestPlane(sim.NewEngine()).SetParam(1, "no_such", 1)
}

func TestPlaneSetParamReadOnlyPanics(t *testing.T) {
	params := NewTable(Column{Name: "fixed", Writable: false, Default: 3})
	p := NewPlane(sim.NewEngine(), "RO_CP", PlaneTypeCache, params, NewTable(), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("SetParam on read-only column did not panic")
		}
	}()
	p.SetParam(1, "fixed", 9)
}

func TestTriggerFiresOnEdge(t *testing.T) {
	e := sim.NewEngine()
	p := newTestPlane(e)
	var fired []Notification
	p.SetInterrupt(func(n Notification) { fired = append(fired, n) })

	missCol, _ := p.Stats().ColumnIndex("miss_rate")
	err := p.InstallTrigger(0, Trigger{
		DSID: 2, StatCol: missCol, Op: OpGT, Value: 300, Action: 7, Enabled: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	p.SetStat(2, "miss_rate", 250)
	p.Evaluate(2)
	if len(fired) != 0 {
		t.Fatal("trigger fired below threshold")
	}

	p.SetStat(2, "miss_rate", 350)
	p.Evaluate(2)
	if len(fired) != 1 {
		t.Fatalf("trigger fired %d times, want 1", len(fired))
	}
	n := fired[0]
	if n.DSID != 2 || n.Action != 7 || n.Stat != "miss_rate" || n.Value != 350 || n.Slot != 0 {
		t.Fatalf("bad notification: %+v", n)
	}

	// Condition stays true: no re-fire (edge semantics, no interrupt storm).
	p.SetStat(2, "miss_rate", 400)
	p.Evaluate(2)
	if len(fired) != 1 {
		t.Fatal("level-triggered re-fire observed")
	}

	// Falls below, then rises again: re-arms and fires once more.
	p.SetStat(2, "miss_rate", 100)
	p.Evaluate(2)
	p.SetStat(2, "miss_rate", 999)
	p.Evaluate(2)
	if len(fired) != 2 {
		t.Fatalf("trigger fired %d times after re-arm, want 2", len(fired))
	}
	if p.TriggersFired != 2 {
		t.Fatalf("TriggersFired = %d, want 2", p.TriggersFired)
	}
}

func TestTriggerIgnoresOtherDSIDs(t *testing.T) {
	p := newTestPlane(sim.NewEngine())
	var fired int
	p.SetInterrupt(func(Notification) { fired++ })
	p.InstallTrigger(0, Trigger{DSID: 2, StatCol: 0, Op: OpGT, Value: 10, Enabled: true})
	p.SetStat(3, "miss_rate", 100)
	p.Evaluate(3)
	if fired != 0 {
		t.Fatal("trigger for ds2 fired on ds3 stats")
	}
}

func TestDisabledTriggerNeverFires(t *testing.T) {
	p := newTestPlane(sim.NewEngine())
	var fired int
	p.SetInterrupt(func(Notification) { fired++ })
	p.InstallTrigger(1, Trigger{DSID: 2, StatCol: 0, Op: OpGT, Value: 10, Enabled: false})
	p.SetStat(2, "miss_rate", 100)
	p.Evaluate(2)
	if fired != 0 {
		t.Fatal("disabled trigger fired")
	}
}

func TestInstallTriggerValidation(t *testing.T) {
	p := newTestPlane(sim.NewEngine())
	if err := p.InstallTrigger(999, Trigger{}); err == nil {
		t.Fatal("out-of-range slot accepted")
	}
	if err := p.InstallTrigger(0, Trigger{StatCol: 99}); err == nil {
		t.Fatal("out-of-range stat column accepted")
	}
}

func TestDeleteRowDisablesTriggers(t *testing.T) {
	p := newTestPlane(sim.NewEngine())
	var fired int
	p.SetInterrupt(func(Notification) { fired++ })
	p.InstallTrigger(0, Trigger{DSID: 5, StatCol: 0, Op: OpGE, Value: 1, Enabled: true})
	p.DeleteRow(5)
	p.SetStat(5, "miss_rate", 50)
	p.Evaluate(5)
	if fired != 0 {
		t.Fatal("trigger survived DeleteRow")
	}
}

func TestEvaluateAllCoversAllRows(t *testing.T) {
	e := sim.NewEngine()
	p := newTestPlane(e)
	p.Sample(10 * sim.Microsecond)
	var fired int
	p.SetInterrupt(func(Notification) { fired++ })
	for ds := DSID(1); ds <= 3; ds++ {
		slot := int(ds) - 1
		p.InstallTrigger(slot, Trigger{DSID: ds, StatCol: 0, Op: OpGT, Value: 0, Enabled: true})
		p.SetStat(ds, "miss_rate", 5)
	}
	e.Run(10 * sim.Microsecond)
	if fired != 3 {
		t.Fatalf("one sample fired %d, want 3", fired)
	}
}

func TestCmpOps(t *testing.T) {
	cases := []struct {
		op   CmpOp
		l, r uint64
		want bool
	}{
		{OpGT, 5, 4, true}, {OpGT, 4, 4, false},
		{OpGE, 4, 4, true}, {OpGE, 3, 4, false},
		{OpLT, 3, 4, true}, {OpLT, 4, 4, false},
		{OpLE, 4, 4, true}, {OpLE, 5, 4, false},
		{OpEQ, 4, 4, true}, {OpEQ, 5, 4, false},
		{OpNE, 5, 4, true}, {OpNE, 4, 4, false},
	}
	for _, c := range cases {
		if got := c.op.Eval(c.l, c.r); got != c.want {
			t.Errorf("%v.Eval(%d,%d) = %v, want %v", c.op, c.l, c.r, got, c.want)
		}
	}
}

func TestParseCmpOp(t *testing.T) {
	for _, s := range []string{"gt", "ge", "lt", "le", "eq", "ne", ">", ">=", "<", "<=", "==", "!="} {
		if _, err := ParseCmpOp(s); err != nil {
			t.Errorf("ParseCmpOp(%q) failed: %v", s, err)
		}
	}
	if _, err := ParseCmpOp("~="); err == nil {
		t.Error("ParseCmpOp accepted garbage")
	}
}

// windowPlane builds a plane with one windowed column of each kind and
// starts its sampler at a 10 µs window.
func windowPlane(e *sim.Engine) *Plane {
	stats := NewTable(
		Column{Name: "hits"},
		Column{Name: "miss_rate", Window: WindowMean, Scale: 1000},
		Column{Name: "bandwidth", Window: WindowMBps},
	)
	p := NewPlane(e, "TEST_CP", PlaneTypeCache, NewTable(), stats, 4)
	p.Sample(10 * sim.Microsecond)
	return p
}

// A mean column publishes Scale·Σnum/Σden over each window and keeps
// its last value through a window with no observations.
func TestWindowMeanScaledAndHeld(t *testing.T) {
	e := sim.NewEngine()
	p := windowPlane(e)
	p.Observe(3, "miss_rate", 1, 1)
	p.Observe(3, "miss_rate", 0, 1)
	p.Observe(3, "miss_rate", 0, 1)
	e.Run(10 * sim.Microsecond)
	if got := p.Stat(3, "miss_rate"); got != 333 {
		t.Fatalf("miss_rate = %d, want 333 (1 of 3, in 0.1%% units)", got)
	}
	e.Run(20 * sim.Microsecond)
	if got := p.Stat(3, "miss_rate"); got != 333 {
		t.Fatalf("miss_rate after an empty window = %d, want 333 held", got)
	}
	p.Observe(3, "miss_rate", 1, 10)
	e.Run(30 * sim.Microsecond)
	if got := p.Stat(3, "miss_rate"); got != 100 {
		t.Fatalf("miss_rate = %d, want 100 from the new window alone", got)
	}
}

// A MB/s column publishes every window, an empty one as zero, with the
// window length as its time base.
func TestWindowMBpsPublishedEveryWindow(t *testing.T) {
	e := sim.NewEngine()
	p := windowPlane(e)
	p.Observe(2, "bandwidth", 4000, 0)
	p.Observe(2, "bandwidth", 1000, 0)
	e.Run(10 * sim.Microsecond)
	// 5000 B in 10 us is 500 MB/s; the float quotient truncates to 499.
	if got := p.Stat(2, "bandwidth"); got != 499 {
		t.Fatalf("bandwidth = %d MB/s, want 499", got)
	}
	e.Run(20 * sim.Microsecond)
	if got := p.Stat(2, "bandwidth"); got != 0 {
		t.Fatalf("bandwidth after an empty window = %d, want 0", got)
	}
	if got := p.Stat(2, "miss_rate"); got != 0 || p.Stats().HasRow(3) {
		t.Fatal("a bandwidth observation published another column or DS-id")
	}
}

// The sampler publishes before it evaluates: a trigger fires in the
// very sample that publishes the crossing value, and its notification
// carries that value.
func TestSamplePublishesBeforeEvaluating(t *testing.T) {
	e := sim.NewEngine()
	p := windowPlane(e)
	var fired []Notification
	p.SetInterrupt(func(n Notification) { fired = append(fired, n) })
	col, _ := p.Stats().ColumnIndex("miss_rate")
	if err := p.InstallTrigger(0, Trigger{DSID: 1, StatCol: col, Op: OpGT, Value: 300, Enabled: true}); err != nil {
		t.Fatal(err)
	}
	p.Observe(1, "miss_rate", 1, 2)
	e.Run(10 * sim.Microsecond)
	if len(fired) != 1 || fired[0].Value != 500 || fired[0].When != 10*sim.Microsecond {
		t.Fatalf("fired %+v, want one firing at 10us with value 500", fired)
	}
}

func TestObserveCounterColumnPanics(t *testing.T) {
	p := windowPlane(sim.NewEngine())
	defer func() {
		if recover() == nil {
			t.Fatal("Observe on a counter column did not panic")
		}
	}()
	p.Observe(1, "hits", 1, 1)
}
