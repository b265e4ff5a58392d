package fabric

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// capture records delivered frames for assertions.
type capture struct {
	engine *sim.Engine
	got    []capturedFrame
}

type capturedFrame struct {
	at     sim.Tick
	flowID uint64
	dstMAC uint64
	bytes  uint32
}

func (c *capture) Deliver(delay sim.Tick, flowID, dstMAC uint64, bytes uint32) {
	c.engine.Schedule(delay, func() {
		c.got = append(c.got, capturedFrame{at: c.engine.Now(), flowID: flowID, dstMAC: dstMAC, bytes: bytes})
	})
}

// build wires a 3-port switch: two host ports and one trunk, each
// backed by a capture sink.
func build(t *testing.T, cfg Config) (*sim.Engine, *Switch, []*capture) {
	t.Helper()
	e := sim.NewEngine()
	s := New(e, cfg)
	var caps []*capture
	for _, class := range []PortClass{PortHost, PortHost, PortTrunk} {
		c := &capture{engine: e}
		s.AddPort(class, c, 10*sim.Nanosecond)
		caps = append(caps, c)
	}
	return e, s, caps
}

func TestSwitchForwardsByMAC(t *testing.T) {
	e, s, caps := build(t, Config{Name: "leaf0"})
	if err := s.BindMAC(0xB0, 2); err != nil {
		t.Fatal(err)
	}
	s.BindFlow(7, core.DSID(3))
	s.Ingress(0, 7, 0xB0, 1500)
	e.Run(1 * sim.Microsecond)

	if len(caps[2].got) != 1 {
		t.Fatalf("trunk delivered %d frames, want 1", len(caps[2].got))
	}
	f := caps[2].got[0]
	if f.dstMAC != 0xB0 || f.flowID != 7 || f.bytes != 1500 {
		t.Fatalf("delivered %+v", f)
	}
	if f.at != 10*sim.Nanosecond {
		t.Fatalf("passthrough frame arrived at %v, want the 10ns link latency", f.at)
	}
	if got := s.Plane().Stat(core.DSID(3), StatFwdFrames); got != 1 {
		t.Fatalf("fwd_frames[3] = %d, want 1", got)
	}
	if got := s.Plane().Stat(core.DSID(3), StatFwdBytes); got != 1500 {
		t.Fatalf("fwd_bytes[3] = %d, want 1500", got)
	}
	if got := s.Plane().Stat(core.DSID(3), StatQDepth); got != 0 {
		t.Fatalf("q_depth[3] = %d, want 0 after drain", got)
	}
}

func TestSwitchDropsUnknownMACAndSplitHorizon(t *testing.T) {
	e, s, caps := build(t, Config{Name: "leaf0"})
	if err := s.BindMAC(0xA1, 1); err != nil { // host port 1
		t.Fatal(err)
	}
	s.Ingress(0, 0, 0xDEAD, 64) // unknown MAC
	s.Ingress(0, 0, 0xA1, 64)   // host→host: split horizon
	e.Run(1 * sim.Microsecond)

	if s.Dropped != 2 {
		t.Fatalf("Dropped = %d, want 2", s.Dropped)
	}
	if got := s.Plane().Stat(core.DSIDDefault, StatDrops); got != 2 {
		t.Fatalf("drops[default] = %d, want 2", got)
	}
	for i, c := range caps {
		if len(c.got) != 0 {
			t.Fatalf("port %d delivered %d frames, want 0", i, len(c.got))
		}
	}
	// Trunk→host must still forward.
	s.Ingress(2, 0, 0xA1, 64)
	e.Run(2 * sim.Microsecond)
	if len(caps[1].got) != 1 {
		t.Fatalf("trunk→host delivered %d frames, want 1", len(caps[1].got))
	}
}

func TestSwitchRateCapDropsOverBudget(t *testing.T) {
	e, s, _ := build(t, Config{Name: "leaf0"})
	if err := s.BindMAC(0xB0, 2); err != nil {
		t.Fatal(err)
	}
	ds := core.DSID(2)
	s.BindFlow(9, ds)
	s.Plane().SetParam(ds, ParamRateCap, 1_000_000) // 1 MB/s → 1500 B burst
	s.Ingress(0, 9, 0xB0, 1500)                     // consumes the whole burst
	s.Ingress(0, 9, 0xB0, 1500)                     // same tick: over budget
	e.Run(1 * sim.Microsecond)
	if s.Forwarded != 1 || s.Dropped != 1 {
		t.Fatalf("forwarded/dropped = %d/%d, want 1/1", s.Forwarded, s.Dropped)
	}
	if got := s.Plane().Stat(ds, StatDrops); got != 1 {
		t.Fatalf("drops[%d] = %d, want 1", ds, got)
	}
}

// TestSwitchWFQOrdersByWeight queues frames from two DS-ids behind a
// busy serializing port and checks the weighted order: the weight-4
// DS-id's virtual finish times advance 4× slower, so three of its
// frames drain before the weight-1 competitor's second frame.
func TestSwitchWFQOrdersByWeight(t *testing.T) {
	e := sim.NewEngine()
	s := New(e, Config{Name: "leaf0", BytesPerSec: 1500_000_000}) // 1500 B serializes in 1us
	sink := &capture{engine: e}
	s.AddPort(PortTrunk, sink, 0)
	host := s.AddPort(PortHost, &capture{engine: e}, 0)
	_ = host
	if err := s.BindMAC(0xB0, 0); err != nil {
		t.Fatal(err)
	}
	heavy, light := core.DSID(1), core.DSID(2)
	s.BindFlow(1, heavy)
	s.BindFlow(2, light)
	s.Plane().SetParam(heavy, ParamWeight, 4)
	s.Plane().SetParam(light, ParamWeight, 1)
	if err := s.Plane().InstallScheduler("wfq"); err != nil {
		t.Fatal(err)
	}
	// Burst: first frame starts serializing immediately; the rest queue.
	for i := 0; i < 4; i++ {
		s.Ingress(1, 1, 0xB0, 1500)
		s.Ingress(1, 2, 0xB0, 1500)
	}
	e.Run(20 * sim.Microsecond)
	if len(sink.got) != 8 {
		t.Fatalf("delivered %d frames, want 8", len(sink.got))
	}
	// First in line serialized before scheduling mattered. Among the
	// queued seven, heavy's virtual finishes advance by 1500*256/4 per
	// frame against light's 1500*256, so heavy frames 2 and 3 drain
	// first; heavy frame 4 ties light frame 1 exactly (both 384000) and
	// the PIFO's push-order tie-break favors the earlier light frame.
	order := make([]uint64, 0, 8)
	for _, f := range sink.got {
		order = append(order, f.flowID)
	}
	want := []uint64{1, 1, 1, 2, 1, 2, 2, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("drain order %v, want %v", order, want)
		}
	}
}

// TestSwitchSchedCatalogueMatchesPolicy: the plane declares SchedAlgos,
// the catalogue the .pard compiler checks switch schedules against.
func TestSwitchSchedCatalogueMatchesPolicy(t *testing.T) {
	e := sim.NewEngine()
	s := New(e, Config{})
	if got := s.Plane().SchedulerAlgos(); !slices.Equal(got, SchedAlgos) {
		t.Fatalf("plane declares %v, want SchedAlgos %v", got, SchedAlgos)
	}
	if got := s.Plane().SchedulerAlgo(); got != "fifo" {
		t.Fatalf("default algo %q, want fifo", got)
	}
	if err := s.Plane().InstallScheduler("edf"); err == nil {
		t.Fatal("installing an unknown algorithm should fail")
	}
}
