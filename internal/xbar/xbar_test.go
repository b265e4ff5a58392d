package xbar

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// slowSink completes packets after a fixed delay, recording arrival
// order.
type slowSink struct {
	e     *sim.Engine
	delay sim.Tick
	order []*core.Packet
}

func (s *slowSink) Request(p *core.Packet) {
	s.order = append(s.order, p)
	s.e.Schedule(s.delay, func() { p.Complete(s.e.Now()) })
}

func newXbar(latency uint64) (*sim.Engine, *Crossbar, *slowSink) {
	e := sim.NewEngine()
	sink := &slowSink{e: e}
	x := New(e, sim.NewClock(e, 500), Config{Name: "x", Latency: latency}, sink)
	return e, x, sink
}

func send(e *sim.Engine, x *Crossbar, ids *core.IDSource, ds core.DSID) *core.Packet {
	p := core.NewPacket(ids, core.KindMemRead, ds, 0x1000, 64, e.Now())
	x.Request(p)
	return p
}

func TestIdleTraversalLatency(t *testing.T) {
	e, x, _ := newXbar(2)
	ids := &core.IDSource{}
	p := send(e, x, ids, 1)
	e.StepUntil(p.Completed)
	// Grant at the next edge (t=0), traversal 2 cycles = 1000 ticks.
	if p.Latency() != 1000 {
		t.Fatalf("latency = %v, want 1ns", p.Latency())
	}
}

func TestPerDSIDOrderPreserved(t *testing.T) {
	e, x, sink := newXbar(1)
	ids := &core.IDSource{}
	var sent []*core.Packet
	for i := 0; i < 10; i++ {
		sent = append(sent, send(e, x, ids, 3))
	}
	e.StepUntil(func() bool { return len(sink.order) == 10 })
	for i, p := range sink.order {
		if p != sent[i] {
			t.Fatalf("order violated at %d", i)
		}
	}
}

func TestOneGrantPerCycle(t *testing.T) {
	e, x, sink := newXbar(1)
	ids := &core.IDSource{}
	for i := 0; i < 5; i++ {
		send(e, x, ids, core.DSID(i))
	}
	e.StepUntil(func() bool { return len(sink.order) == 5 })
	// 5 grants need at least 4 cycles between first and last arrival.
	first := sink.order[0].Issue // all issued at t=0
	_ = first
	if e.Now() < 4*500 {
		t.Fatalf("5 grants completed in %v; grants not serialized", e.Now())
	}
}

func TestWRRWeightsShiftThroughput(t *testing.T) {
	e, x, _ := newXbar(1)
	ids := &core.IDSource{}
	x.Plane().Params().SetName(1, ParamWeight, 3)
	// Keep both queues saturated for a while.
	var done1, done2 int
	var feed func(ds core.DSID, counter *int)
	feed = func(ds core.DSID, counter *int) {
		p := core.NewPacket(ids, core.KindMemRead, ds, 0, 64, e.Now())
		p.OnDone = func(*core.Packet) {
			*counter++
			feed(ds, counter)
		}
		x.Request(p)
	}
	// Prime several outstanding per DS-id so queues never empty.
	for i := 0; i < 8; i++ {
		feed(1, &done1)
		feed(2, &done2)
	}
	e.Run(100 * sim.Microsecond)
	ratio := float64(done1) / float64(done2)
	if ratio < 2.5 || ratio > 3.5 {
		t.Fatalf("weighted ratio = %.2f (%d vs %d), want ~3", ratio, done1, done2)
	}
}

func TestQueueDelayStatPublished(t *testing.T) {
	e, x, _ := newXbar(1)
	ids := &core.IDSource{}
	var pkts []*core.Packet
	for i := 0; i < 20; i++ {
		pkts = append(pkts, send(e, x, ids, 4))
	}
	e.StepUntil(func() bool {
		for _, p := range pkts {
			if !p.Completed() {
				return false
			}
		}
		return true
	})
	e.Run(e.Now() + 200*sim.Microsecond)
	if x.Plane().Stat(4, StatFwdCnt) != 20 {
		t.Fatalf("fwd_cnt = %d", x.Plane().Stat(4, StatFwdCnt))
	}
	// 20 back-to-back packets queue: delay stat must be nonzero at the
	// first sample covering them.
	// (avg_qlat may have decayed; fwd_cnt is the durable check.)
}

func TestTriggerOnCrossbarStats(t *testing.T) {
	e, x, _ := newXbar(1)
	ids := &core.IDSource{}
	var fired int
	x.Plane().SetInterrupt(func(core.Notification) { fired++ })
	col, _ := x.Plane().Stats().ColumnIndex(StatFwdCnt)
	x.Plane().InstallTrigger(0, core.Trigger{
		DSID: 5, StatCol: col, Op: core.OpGE, Value: 10, Enabled: true,
	})
	var pkts []*core.Packet
	for i := 0; i < 15; i++ {
		pkts = append(pkts, send(e, x, ids, 5))
	}
	e.Run(e.Now() + 300*sim.Microsecond)
	if fired != 1 {
		t.Fatalf("trigger fired %d times", fired)
	}
	_ = pkts
}

func TestEmptyQueueCleanup(t *testing.T) {
	e, x, _ := newXbar(1)
	ids := &core.IDSource{}
	p := send(e, x, ids, 7)
	e.StepUntil(p.Completed)
	// Grant another from a different DS-id; the ring must have cleaned
	// up the drained one.
	q := send(e, x, ids, 8)
	e.StepUntil(q.Completed)
	if x.pending() != 0 {
		t.Fatalf("pending = %d", x.pending())
	}
}

// TestDrainedDSIDsDoNotStallGrants: DS-ids drained ahead of a waiting
// one must not end the grant scan. DS-ids 1 and 2 queue one packet each
// and DS-id 3 two, all at t=0. The fourth poll drops 1 and 2 from the
// ring and must still grant DS-id 3's second packet on that edge; no
// later Request comes to re-arm the port.
func TestDrainedDSIDsDoNotStallGrants(t *testing.T) {
	e, x, _ := newXbar(1)
	ids := &core.IDSource{}
	send(e, x, ids, 1)
	send(e, x, ids, 2)
	send(e, x, ids, 3)
	last := send(e, x, ids, 3)
	e.Run(sim.Microsecond)
	if x.Granted != 4 || x.pending() != 0 {
		t.Fatalf("granted %d, %d still queued; want 4, 0", x.Granted, x.pending())
	}
	// Granted on the fourth edge (1.5 ns), then one traversal cycle.
	if !last.Completed() || last.Latency() != 2000 {
		t.Fatalf("last packet completed %v with latency %v, want 2ns", last.Completed(), last.Latency())
	}
}
