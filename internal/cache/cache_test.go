package cache

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/sim"
)

// stubMem completes every request after a fixed delay, recording traffic.
type stubMem struct {
	e      *sim.Engine
	delay  sim.Tick
	reads  int
	writes int
	seen   []*core.Packet
}

func (m *stubMem) Request(p *core.Packet) {
	m.seen = append(m.seen, p)
	if p.Kind.IsWrite() {
		m.writes++
	} else {
		m.reads++
	}
	m.e.Schedule(m.delay, func() { p.Complete(m.e.Now()) })
}

type harness struct {
	e   *sim.Engine
	mem *stubMem
	c   *Cache
	ids *core.IDSource
}

func newHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	e := sim.NewEngine()
	mem := &stubMem{e: e, delay: 50 * sim.Nanosecond}
	ids := &core.IDSource{}
	clock := sim.NewClock(e, 500) // 2 GHz
	return &harness{e: e, mem: mem, ids: ids, c: New(e, clock, ids, cfg, mem)}
}

func llcConfig() Config {
	return Config{
		Name: "llc", SizeBytes: 64 * 1024, Ways: 16, BlockSize: 64,
		HitLatency: 20, ControlPlane: true, SampleInterval: 10 * sim.Microsecond,
	}
}

// access issues a read/write and runs the engine until completion.
func (h *harness) access(t *testing.T, kind core.Kind, ds core.DSID, addr uint64) sim.Tick {
	t.Helper()
	p := core.NewPacket(h.ids, kind, ds, addr, 64, h.e.Now())
	h.c.Request(p)
	if !h.e.StepUntil(p.Completed) {
		t.Fatalf("access %v %v %#x never completed", kind, ds, addr)
	}
	return p.Latency()
}

func TestColdMissThenHit(t *testing.T) {
	h := newHarness(t, llcConfig())
	lat1 := h.access(t, core.KindMemRead, 1, 0x1000)
	if h.c.Misses != 1 || h.c.Hits != 0 {
		t.Fatalf("after cold access: hits=%d misses=%d", h.c.Hits, h.c.Misses)
	}
	lat2 := h.access(t, core.KindMemRead, 1, 0x1000)
	if h.c.Hits != 1 {
		t.Fatalf("second access missed (hits=%d)", h.c.Hits)
	}
	if lat2 >= lat1 {
		t.Fatalf("hit latency %v not below miss latency %v", lat2, lat1)
	}
	// Hit latency is exactly HitLatency cycles (20 * 500 ps).
	if lat2 != 20*500 {
		t.Fatalf("hit latency = %v, want 10ns", lat2)
	}
}

func TestDSIDMismatchMisses(t *testing.T) {
	h := newHarness(t, llcConfig())
	h.access(t, core.KindMemRead, 1, 0x2000)
	h.access(t, core.KindMemRead, 2, 0x2000) // same addr, different LDom
	if h.c.Hits != 0 || h.c.Misses != 2 {
		t.Fatalf("cross-DS-id access hit: hits=%d misses=%d", h.c.Hits, h.c.Misses)
	}
	// Both copies coexist.
	if h.c.Occupancy(1) != 1 || h.c.Occupancy(2) != 1 {
		t.Fatalf("occupancy = %d/%d, want 1/1", h.c.Occupancy(1), h.c.Occupancy(2))
	}
}

func TestDirtyEvictionWritesBackWithOwnerTag(t *testing.T) {
	cfg := llcConfig()
	cfg.SizeBytes = 2 * 1024 // 2 sets x 16 ways
	h := newHarness(t, cfg)

	// LDom 1 dirties a block in set 0.
	h.access(t, core.KindMemWrite, 1, 0)
	// LDom 2 fills the rest of set 0 and forces the eviction.
	setStride := uint64(2 * 64) // 2 sets * 64B
	for i := uint64(1); i <= 16; i++ {
		h.access(t, core.KindMemRead, 2, i*setStride)
	}
	if h.c.Writebacks == 0 {
		t.Fatal("no writeback after evicting dirty line")
	}
	var wb *core.Packet
	for _, p := range h.mem.seen {
		if p.Kind == core.KindWriteback {
			wb = p
			break
		}
	}
	if wb == nil {
		t.Fatal("writeback packet never reached memory")
	}
	if wb.DSID != 1 {
		t.Fatalf("writeback tagged %v, want owner ds1 (paper §4.1)", wb.DSID)
	}
	if wb.Addr != 0 {
		t.Fatalf("writeback addr = %#x, want 0", wb.Addr)
	}
}

func TestWritebackInstallsWithoutFillRead(t *testing.T) {
	h := newHarness(t, llcConfig())
	p := core.NewPacket(h.ids, core.KindWriteback, 3, 0x4000, 64, 0)
	h.c.Request(p)
	if !h.e.StepUntil(p.Completed) {
		t.Fatal("writeback never completed")
	}
	if h.mem.reads != 0 {
		t.Fatalf("writeback install issued %d fill reads, want 0", h.mem.reads)
	}
	// The installed block is dirty: evicting it writes back.
	if h.c.Occupancy(3) != 1 {
		t.Fatalf("occupancy = %d", h.c.Occupancy(3))
	}
}

func TestMSHRCoalescing(t *testing.T) {
	h := newHarness(t, llcConfig())
	var done int
	for i := 0; i < 4; i++ {
		p := core.NewPacket(h.ids, core.KindMemRead, 1, 0x8000, 64, 0)
		p.OnDone = func(*core.Packet) { done++ }
		h.c.Request(p)
	}
	h.e.StepUntil(func() bool { return done == 4 })
	if done != 4 {
		t.Fatalf("%d of 4 coalesced requests completed", done)
	}
	if h.c.Fills != 1 || h.mem.reads != 1 {
		t.Fatalf("fills=%d memreads=%d, want 1/1", h.c.Fills, h.mem.reads)
	}
}

func TestMSHRStructuralStall(t *testing.T) {
	cfg := llcConfig()
	cfg.MSHRs = 1
	h := newHarness(t, cfg)
	var done int
	for i := 0; i < 3; i++ {
		p := core.NewPacket(h.ids, core.KindMemRead, 1, uint64(i)*0x10000, 64, 0)
		p.OnDone = func(*core.Packet) { done++ }
		h.c.Request(p)
	}
	h.e.StepUntil(func() bool { return done == 3 })
	if done != 3 {
		t.Fatalf("%d of 3 completed under MSHR pressure", done)
	}
	if h.c.MSHRStalls == 0 {
		t.Fatal("expected structural stalls with 1 MSHR")
	}
}

func TestWayPartitionBoundsOccupancy(t *testing.T) {
	h := newHarness(t, llcConfig())
	h.c.Plane().Params().SetName(1, ParamWayMask, 0x000F) // 4 of 16 ways
	sets := h.c.numBlocks / h.c.cfg.Ways
	// Stream far more blocks than the partition holds.
	for i := 0; i < 8*h.c.numBlocks; i++ {
		h.access(t, core.KindMemRead, 1, uint64(i)*64)
	}
	limit := uint64(4 * sets)
	if occ := h.c.Occupancy(1); occ > limit {
		t.Fatalf("occupancy %d exceeds partition limit %d", occ, limit)
	}
}

func TestPartitionIsolatesVictims(t *testing.T) {
	h := newHarness(t, llcConfig())
	h.c.Plane().Params().SetName(1, ParamWayMask, 0xFF00)
	h.c.Plane().Params().SetName(2, ParamWayMask, 0x00FF)
	// LDom1 fills its half.
	for i := 0; i < h.c.numBlocks/2; i++ {
		h.access(t, core.KindMemRead, 1, uint64(i)*64)
	}
	occ1 := h.c.Occupancy(1)
	// LDom2 streams heavily; it must not evict LDom1's blocks.
	for i := 0; i < 4*h.c.numBlocks; i++ {
		h.access(t, core.KindMemRead, 2, uint64(i)*64)
	}
	if got := h.c.Occupancy(1); got != occ1 {
		t.Fatalf("partitioned LDom1 occupancy moved %d -> %d", occ1, got)
	}
}

func TestControlPlaneStatsAndTrigger(t *testing.T) {
	h := newHarness(t, llcConfig())
	var fired int
	h.c.Plane().SetInterrupt(func(n core.Notification) {
		fired++
		if n.Stat != StatMissRate {
			t.Errorf("trigger stat = %q", n.Stat)
		}
	})
	missCol, _ := h.c.Plane().Stats().ColumnIndex(StatMissRate)
	h.c.Plane().InstallTrigger(0, core.Trigger{
		DSID: 1, StatCol: missCol, Op: core.OpGT, Value: 300, Enabled: true,
	})
	// All-miss streaming traffic: miss rate 100% > 30%.
	for i := 0; i < 200; i++ {
		h.access(t, core.KindMemRead, 1, uint64(i)*0x10000)
	}
	h.e.Run(h.e.Now() + 20*sim.Microsecond) // let a sample window close
	if fired == 0 {
		t.Fatal("miss-rate trigger never fired")
	}
	if h.c.Plane().Stat(1, StatMissCnt) == 0 {
		t.Fatal("miss_cnt not accounted")
	}
	if h.c.Plane().Stat(1, StatCapacity) != h.c.Occupancy(1) {
		t.Fatal("capacity stat diverges from occupancy")
	}
}

func TestGeometryValidation(t *testing.T) {
	e := sim.NewEngine()
	clock := sim.NewClock(e, 500)
	bad := []struct {
		cfg  Config
		want string // in the panic, naming the remedy
	}{
		{Config{Name: "x", SizeBytes: 1024, Ways: 3, BlockSize: 64}, "ways must be a power of two"},
		{Config{Name: "x", SizeBytes: 1000, Ways: 2, BlockSize: 64}, "not divisible by ways*block"},
		{Config{Name: "x", SizeBytes: 3 * 2 * 64, Ways: 2, BlockSize: 64}, "set count must be a power of two"},
		{Config{Name: "x", SizeBytes: 4 * 2 * 96, Ways: 2, BlockSize: 96}, "block size must be a power of two"},
		// One set of one-byte blocks leaves a 48-bit tag, two bits too
		// wide for a word beside the owner and state bits.
		{Config{Name: "x", SizeBytes: 2, Ways: 2, BlockSize: 1}, "use a larger block or more sets"},
	}
	for _, tc := range bad {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, tc.want) {
					t.Errorf("config %+v: panic %q, want one containing %q", tc.cfg, msg, tc.want)
				}
			}()
			New(e, clock, &core.IDSource{}, tc.cfg, &stubMem{e: e})
		}()
	}
	// The smallest geometry whose tag fits: one set of 4-byte blocks.
	New(e, clock, &core.IDSource{}, Config{Name: "x", SizeBytes: 8, Ways: 2, BlockSize: 4}, &stubMem{e: e})
}

// TestAddressWidthPanics: an address with a bit at or above the 48-bit
// physical address width has a tag too wide for its block word, so the
// cache refuses the request and names the address and the width.
func TestAddressWidthPanics(t *testing.T) {
	h := newHarness(t, llcConfig())
	h.access(t, core.KindMemRead, 1, 1<<physAddrBits-1) // the top byte is fine
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "0x1000000000000") || !strings.Contains(msg, "48-bit") {
			t.Fatalf("panic %q does not name the address and the 48-bit width", msg)
		}
	}()
	h.c.Request(core.NewPacket(h.ids, core.KindMemRead, 1, 1<<physAddrBits, 64, h.e.Now()))
	t.Fatal("a 49-bit address was accepted")
}

func TestInvalidateDSIDScrubsAndWritesBack(t *testing.T) {
	h := newHarness(t, llcConfig())
	// ds1 dirties some blocks, ds2 reads some.
	for i := 0; i < 10; i++ {
		h.access(t, core.KindMemWrite, 1, uint64(i)*4096)
	}
	for i := 0; i < 5; i++ {
		h.access(t, core.KindMemRead, 2, uint64(i)*4096)
	}
	n := h.c.InvalidateDSID(1)
	h.e.StepUntil(func() bool { return h.e.Pending() == 0 || h.c.Writebacks >= 10 })
	if n != 10 {
		t.Fatalf("invalidated %d blocks, want 10", n)
	}
	if h.c.Occupancy(1) != 0 {
		t.Fatalf("occupancy after scrub = %d", h.c.Occupancy(1))
	}
	if h.c.Occupancy(2) != 5 {
		t.Fatalf("bystander occupancy = %d, want 5", h.c.Occupancy(2))
	}
	// Dirty blocks were written back with the owner tag.
	var wb int
	for _, p := range h.mem.seen {
		if p.Kind == core.KindWriteback && p.DSID == 1 {
			wb++
		}
	}
	if wb != 10 {
		t.Fatalf("writebacks on scrub = %d, want 10", wb)
	}
	// Next access by a recycled ds1 misses (no stale hits).
	h.access(t, core.KindMemRead, 1, 0)
	if h.c.Hits != 0 {
		t.Fatal("stale hit after scrub")
	}
}

// validBlocks counts the tag array's valid blocks.
func validBlocks(c *Cache) uint64 {
	var n uint64
	for _, b := range c.blocks {
		n += b & blockValid
	}
	return n
}

// Regression: many misses in flight to the same sets must not reserve
// the same way twice; occupancy stays bounded by capacity even when
// requests are issued in parallel before any fill lands.
func TestParallelMissesDoNotLeakOccupancy(t *testing.T) {
	cfg := llcConfig()
	cfg.MSHRs = 256
	h := newHarness(t, cfg)
	h.mem.delay = 10 * sim.Microsecond // fills land long after issue
	var done int
	total := 4 * h.c.numBlocks
	for i := 0; i < total; i++ {
		p := core.NewPacket(h.ids, core.KindMemRead, core.DSID(i%3), uint64(i)*64, 64, h.e.Now())
		p.OnDone = func(*core.Packet) { done++ }
		h.c.Request(p)
	}
	h.e.StepUntil(func() bool { return done == total })
	var sum uint64
	for _, occ := range h.c.occupancy {
		sum += occ
	}
	if sum > uint64(h.c.numBlocks) {
		t.Fatalf("occupancy %d exceeds capacity %d", sum, h.c.numBlocks)
	}
	if valid := validBlocks(h.c); sum != valid {
		t.Fatalf("occupancy %d != valid blocks %d", sum, valid)
	}
}

// Property: total occupancy across DS-ids equals the number of valid
// blocks and never exceeds capacity, for arbitrary access interleavings.
func TestPropertyOccupancyConsistent(t *testing.T) {
	f := func(ops []struct {
		DS   uint8
		Addr uint16
		Wr   bool
	}) bool {
		cfg := llcConfig()
		cfg.SizeBytes = 4 * 1024
		cfg.ControlPlane = false
		e := sim.NewEngine()
		mem := &stubMem{e: e, delay: 10 * sim.Nanosecond}
		c := New(e, sim.NewClock(e, 500), &core.IDSource{}, cfg, mem)
		for _, op := range ops {
			kind := core.KindMemRead
			if op.Wr {
				kind = core.KindMemWrite
			}
			p := core.NewPacket(&core.IDSource{}, kind, core.DSID(op.DS%4), uint64(op.Addr)*64, 64, e.Now())
			c.Request(p)
			e.Drain(0)
		}
		var total uint64
		for _, occ := range c.occupancy {
			total += occ
		}
		return total == validBlocks(c) && total <= uint64(c.numBlocks)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
