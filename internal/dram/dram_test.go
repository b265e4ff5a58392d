package dram

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

func newCtrl(cp bool) (*sim.Engine, *Controller, *core.IDSource) {
	e := sim.NewEngine()
	ids := &core.IDSource{}
	cfg := DefaultConfig()
	cfg.ControlPlane = cp
	return e, New(e, ids, cfg), ids
}

func read(e *sim.Engine, c *Controller, ids *core.IDSource, ds core.DSID, addr uint64) *core.Packet {
	p := core.NewPacket(ids, core.KindMemRead, ds, addr, 64, e.Now())
	c.Request(p)
	return p
}

// waitAll steps the engine until every packet completes (Drain would
// spin forever on the control plane's periodic sampler).
func waitAll(e *sim.Engine, pkts ...*core.Packet) {
	e.StepUntil(func() bool {
		for _, p := range pkts {
			if !p.Completed() {
				return false
			}
		}
		return true
	})
}

func TestSingleRequestCompletes(t *testing.T) {
	e, c, ids := newCtrl(true)
	p := read(e, c, ids, 1, 0x1000)
	waitAll(e, p)
	if !p.Completed() {
		t.Fatal("request never completed")
	}
	// Closed-bank access: tRCD + tCL + burst = 26 cycles.
	want := sim.Tick(26) * c.cfg.TCK
	if p.Latency() != want {
		t.Fatalf("latency = %v, want %v", p.Latency(), want)
	}
	if c.Served != 1 {
		t.Fatalf("Served = %d", c.Served)
	}
}

func TestRowHitFasterThanConflict(t *testing.T) {
	e, c, ids := newCtrl(true)
	// Same row twice: second is a row hit.
	p1 := read(e, c, ids, 1, 0)
	waitAll(e, p1)
	p2 := read(e, c, ids, 1, 64)
	waitAll(e, p2)
	// Different row, same bank: conflict.
	rowStride := uint64(c.cfg.RowBytes * c.totalBanks())
	p3 := read(e, c, ids, 1, rowStride)
	waitAll(e, p3)
	if !(p2.Latency() < p1.Latency() && p1.Latency() < p3.Latency()) {
		t.Fatalf("latencies hit=%v closed=%v conflict=%v not ordered", p2.Latency(), p1.Latency(), p3.Latency())
	}
	if c.RowHits != 1 || c.RowConflicts != 1 {
		t.Fatalf("rowhits=%d conflicts=%d", c.RowHits, c.RowConflicts)
	}
}

func TestAddressMappingIsolatesLDoms(t *testing.T) {
	e, c, ids := newCtrl(true)
	// Two LDoms, same guest-physical address, different DRAM regions.
	c.Plane().Params().SetName(1, ParamAddrBase, 0)
	c.Plane().Params().SetName(2, ParamAddrBase, 1<<30)
	b1, r1 := c.translate(1, 0x1000)
	b2, r2 := c.translate(2, 0x1000)
	if b1 == b2 && r1 == r2 {
		t.Fatal("two LDoms at the same guest address mapped to the same DRAM row")
	}
	_ = e
	_ = ids
}

func TestPriorityQueueServesHighFirst(t *testing.T) {
	e, c, ids := newCtrl(true)
	c.Plane().Params().SetName(7, ParamPriority, 1) // ds7 high
	// Pile up many low-priority requests on one bank, then one high.
	rowStride := uint64(c.cfg.RowBytes * c.totalBanks())
	var lows []*core.Packet
	for i := 0; i < 8; i++ {
		lows = append(lows, read(e, c, ids, 1, uint64(i)*rowStride)) // all bank 0, conflicting rows
	}
	hi := read(e, c, ids, 7, 3*rowStride)
	waitAll(e, append(lows, hi)...)
	if !hi.Completed() {
		t.Fatal("high-priority request never completed")
	}
	doneBefore := 0
	for _, p := range lows {
		if p.Done < hi.Done {
			doneBefore++
		}
	}
	// The in-flight low request finishes first at most; the backlog must
	// not be served ahead of the high-priority request.
	if doneBefore > 1 {
		t.Fatalf("%d low-priority requests served before the high-priority one", doneBefore)
	}
}

func TestBaselineSingleQueueIgnoresPriority(t *testing.T) {
	e, c, ids := newCtrl(false)
	if c.Plane() != nil {
		t.Fatal("baseline controller has a plane")
	}
	if c.levels != 1 {
		t.Fatalf("baseline has %d priority levels, want 1", c.levels)
	}
	for i := 0; i < 10; i++ {
		read(e, c, ids, core.DSID(i%3), uint64(i)*4096)
	}
	e.Drain(0)
	if c.Served != 10 {
		t.Fatalf("Served = %d, want 10", c.Served)
	}
}

func TestSeparateRowBuffersAvoidConflicts(t *testing.T) {
	e, c, ids := newCtrl(true)
	c.Plane().Params().SetName(2, ParamRowBuf, 1) // ds2 uses the extra buffer
	rowStride := uint64(c.cfg.RowBytes * c.totalBanks())

	// ds1 opens row 0 of bank 0; ds2 opens row 1 of bank 0 in its own
	// buffer. Re-touching each row must then row-hit for both.
	waitAll(e, read(e, c, ids, 1, 0))
	waitAll(e, read(e, c, ids, 2, rowStride))
	hits := c.RowHits
	waitAll(e, read(e, c, ids, 1, 64))
	waitAll(e, read(e, c, ids, 2, rowStride+64))
	if c.RowHits != hits+2 {
		t.Fatalf("row hits = %d, want %d: per-DS-id row buffers not isolating", c.RowHits, hits+2)
	}
	if c.RowConflicts != 0 {
		t.Fatalf("conflicts = %d, want 0 with separate row buffers", c.RowConflicts)
	}
}

func TestSharedRowBufferConflicts(t *testing.T) {
	e, c, ids := newCtrl(true)
	rowStride := uint64(c.cfg.RowBytes * c.totalBanks())
	waitAll(e, read(e, c, ids, 1, 0))
	waitAll(e, read(e, c, ids, 2, rowStride)) // same bank, same buffer, different row
	if c.RowConflicts != 1 {
		t.Fatalf("conflicts = %d, want 1 when sharing one row buffer", c.RowConflicts)
	}
}

func TestQueueDelayRecorded(t *testing.T) {
	e, c, ids := newCtrl(true)
	var pkts []*core.Packet
	for i := 0; i < 20; i++ {
		pkts = append(pkts, read(e, c, ids, 1, uint64(i)*64)) // same row: serialized on the bus
	}
	waitAll(e, pkts...)
	h := c.QueueDelay[len(c.QueueDelay)-1]
	if h.Count() != 20 {
		t.Fatalf("recorded %d delays, want 20", h.Count())
	}
	if h.Max() == 0 {
		t.Fatal("burst of 20 requests shows zero max queueing delay")
	}
}

func TestStatsPublishedOnSample(t *testing.T) {
	e, c, ids := newCtrl(true)
	for i := 0; i < 50; i++ {
		read(e, c, ids, 3, uint64(i)*64)
	}
	e.Run(e.Now() + c.cfg.SampleInterval + sim.Microsecond)
	if c.Plane().Stat(3, StatServCnt) != 50 {
		t.Fatalf("serv_cnt = %d", c.Plane().Stat(3, StatServCnt))
	}
	if c.Plane().Stat(3, StatBandwidth) == 0 {
		t.Fatal("bandwidth stat is zero after traffic")
	}
}

func TestAllRequestsEventuallyComplete(t *testing.T) {
	e, c, ids := newCtrl(true)
	r := rand.New(rand.NewSource(5))
	c.Plane().Params().SetName(1, ParamPriority, 1)
	var pkts []*core.Packet
	for i := 0; i < 500; i++ {
		ds := core.DSID(r.Intn(3))
		kind := core.KindMemRead
		if r.Intn(2) == 0 {
			kind = core.KindWriteback
		}
		p := core.NewPacket(ids, kind, ds, uint64(r.Intn(1<<24))&^63, 64, e.Now())
		c.Request(p)
		pkts = append(pkts, p)
		if r.Intn(4) == 0 {
			e.Run(e.Now() + sim.Tick(r.Intn(200))*sim.Nanosecond)
		}
	}
	waitAll(e, pkts...)
	for i, p := range pkts {
		if !p.Completed() {
			t.Fatalf("packet %d never completed", i)
		}
	}
	if c.Served != 500 {
		t.Fatalf("Served = %d, want 500", c.Served)
	}
}

func TestBusSerializesBanks(t *testing.T) {
	e, c, ids := newCtrl(true)
	// Two requests to different banks issued together still share the
	// channel: completions must not be simultaneous.
	p1 := read(e, c, ids, 1, 0)
	p2 := read(e, c, ids, 1, uint64(c.cfg.RowBytes)) // bank 1
	waitAll(e, p1, p2)
	if p1.Done == p2.Done {
		t.Fatal("two bursts completed at the same instant on one channel")
	}
}

func TestPriorityOfClamping(t *testing.T) {
	_, c, _ := newCtrl(true)
	c.Plane().Params().SetName(4, ParamPriority, 99)
	if q := c.priorityOf(4); q != 0 {
		t.Fatalf("oversized priority mapped to queue %d, want 0 (highest)", q)
	}
	if q := c.priorityOf(5); q != c.levels-1 {
		t.Fatalf("default priority mapped to queue %d, want lowest", q)
	}
}
