package cache

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// Regression: a structurally stalled miss must be counted exactly once.
// The stall/retry path used to re-enter miss() and increment Misses (and
// the windowed miss ratio) again on every retry, inflating miss_rate —
// the very statistic Figure 9's trigger conditions on.
func TestStalledMissCountedOnce(t *testing.T) {
	cfg := llcConfig()
	cfg.MSHRs = 1
	h := newHarness(t, cfg)

	done := 0
	for _, addr := range []uint64{0x0, 0x10000} {
		p := core.NewPacket(h.ids, core.KindMemRead, 1, addr, 64, h.e.Now())
		p.OnDone = func(*core.Packet) { done++ }
		h.c.Request(p)
	}
	h.e.StepUntil(func() bool { return done == 2 })
	if done != 2 {
		t.Fatal("accesses under MSHR pressure never completed")
	}
	if h.c.MSHRStalls != 1 {
		t.Fatalf("MSHRStalls = %d, want 1 (second miss stalls once)", h.c.MSHRStalls)
	}
	// Two accesses, two misses — not three, however often the second
	// one stalled and retried.
	if h.c.Misses != 2 || h.c.Hits != 0 {
		t.Fatalf("hits=%d misses=%d, want 0/2", h.c.Hits, h.c.Misses)
	}
	if got := h.c.Plane().Stat(1, StatMissCnt); got != 2 {
		t.Fatalf("miss_cnt stat = %d, want 2", got)
	}

	// One hit on an installed block, then close a sample window:
	// miss rate must be exactly 2/3 = 66.6%, in 0.1% units.
	h.access(t, core.KindMemRead, 1, 0x0)
	h.e.Run(h.e.Now() + cfg.SampleInterval)
	if got := h.c.MissRate(1); got != 666 {
		t.Fatalf("windowed miss rate = %d, want 666 (2 misses / 3 accesses)", got)
	}
	if got := h.c.Plane().Stat(1, StatMissRate); got != 666 {
		t.Fatalf("miss_rate stat = %d, want 666", got)
	}
}

// Regression: InvalidateDSID used to sweep only installed lines. A fill
// still in flight would land after the teardown, re-install a block owned
// by the dead DS-id and re-increment its occupancy; a structurally
// stalled access would retry into the torn-down domain.
func TestTeardownDuringMissDropsInFlightFill(t *testing.T) {
	h := newHarness(t, llcConfig())

	p := core.NewPacket(h.ids, core.KindMemRead, 1, 0x40, 64, h.e.Now())
	h.c.Request(p)
	// Run until the fill read is in flight at the next level.
	h.e.StepUntil(func() bool { return h.mem.reads == 1 })
	if p.Completed() {
		t.Fatal("miss completed before its fill returned")
	}

	if n := h.c.InvalidateDSID(1); n != 0 {
		t.Fatalf("invalidated %d installed blocks, want 0 (block was in flight)", n)
	}
	if !p.Completed() {
		t.Fatal("waiter not completed at teardown")
	}

	// Let the stale fill land: it must be dropped, not installed.
	h.e.Run(h.e.Now() + sim.Microsecond)
	if occ := h.c.Occupancy(1); occ != 0 {
		t.Fatalf("occupancy re-incremented to %d by a post-teardown fill", occ)
	}
	if h.c.Fills != 0 {
		t.Fatalf("Fills = %d, want 0 (stale fill must not install)", h.c.Fills)
	}
	si := h.c.setIndex(h.c.blockAddr(0x40))
	if h.c.reserved[si] != 0 {
		t.Fatalf("reserved mask %#x not released after dropping the dead fill", h.c.reserved[si])
	}
	// The block is really gone: re-requesting it misses again.
	h.access(t, core.KindMemRead, 1, 0x40)
	if h.c.Misses != 2 {
		t.Fatalf("misses = %d, want 2 (post-teardown access must refetch)", h.c.Misses)
	}
}

// Teardown with a saturated MSHR file: the dead DS-id's stalled accesses
// are flushed, and a surviving DS-id's stalled access still completes
// once the dead fill frees its MSHR.
func TestTeardownFlushesStalledAndUnblocksSurvivors(t *testing.T) {
	cfg := llcConfig()
	cfg.MSHRs = 1
	h := newHarness(t, cfg)

	mk := func(ds core.DSID, addr uint64) *core.Packet {
		p := core.NewPacket(h.ids, core.KindMemRead, ds, addr, 64, h.e.Now())
		h.c.Request(p)
		return p
	}
	pa := mk(1, 0x0)     // occupies the single MSHR
	pb := mk(2, 0x20000) // stalls, survives the teardown
	pc := mk(1, 0x40000) // stalls, flushed by the teardown
	// Run until the fill is in flight and both later misses have looked
	// up and stalled (their lookups share pa's tick but order later).
	h.e.StepUntil(func() bool { return h.mem.reads == 1 && h.c.spifo.Len() == 2 })

	h.c.InvalidateDSID(1)
	if !pa.Completed() || !pc.Completed() {
		t.Fatal("ds1's in-flight and stalled accesses not completed at teardown")
	}
	if pb.Completed() {
		t.Fatal("ds2's stalled access flushed by ds1's teardown")
	}

	h.e.StepUntil(pb.Completed)
	if !pb.Completed() {
		t.Fatal("surviving stalled access never retried after the dead fill landed")
	}
	if h.c.Occupancy(1) != 0 || h.c.Occupancy(2) != 1 {
		t.Fatalf("occupancy ds1=%d ds2=%d, want 0/1", h.c.Occupancy(1), h.c.Occupancy(2))
	}
	if h.c.Fills != 1 {
		t.Fatalf("Fills = %d, want 1 (only the survivor installs)", h.c.Fills)
	}
	if h.c.Misses != 3 {
		t.Fatalf("misses = %d, want 3 (each access counted once)", h.c.Misses)
	}
}

// A DS-id re-requesting a block after its teardown but before the stale
// fill lands must be served fresh data: the dead entry is retargeted
// (refetched), not satisfied by the in-flight block.
func TestTeardownThenRerequestRefetches(t *testing.T) {
	h := newHarness(t, llcConfig())

	p := core.NewPacket(h.ids, core.KindMemRead, 1, 0x40, 64, h.e.Now())
	h.c.Request(p)
	h.e.StepUntil(func() bool { return h.mem.reads == 1 })
	h.c.InvalidateDSID(1)

	// New-epoch request for the same block, same (recycled) DS-id,
	// before the stale fill lands: it coalesces onto the dead entry.
	p2 := core.NewPacket(h.ids, core.KindMemRead, 1, 0x40, 64, h.e.Now())
	h.c.Request(p2)
	h.e.StepUntil(p2.Completed)
	if !p2.Completed() {
		t.Fatal("new-epoch request never completed")
	}
	if h.mem.reads != 2 {
		t.Fatalf("fill reads = %d, want 2 (retarget refetches)", h.mem.reads)
	}
	if h.c.Occupancy(1) != 1 || h.c.Fills != 1 {
		t.Fatalf("occupancy=%d fills=%d, want 1/1", h.c.Occupancy(1), h.c.Fills)
	}
}

// Reserved-way exhaustion is the second structural stall: every allowed
// way in the set has a fill in flight, so allocateMiss finds no victim.
func TestReservedWayExhaustionStalls(t *testing.T) {
	cfg := Config{
		Name: "t", SizeBytes: 2 * 64, Ways: 1, BlockSize: 64,
		HitLatency: 1, MSHRs: 64,
	}
	h := newHarness(t, cfg)

	done := 0
	// Two misses mapping to set 0; the single way is reserved by the
	// first fill when the second arrives.
	for _, addr := range []uint64{0x0, 0x80} {
		p := core.NewPacket(h.ids, core.KindMemRead, 1, addr, 64, h.e.Now())
		p.OnDone = func(*core.Packet) { done++ }
		h.c.Request(p)
	}
	h.e.StepUntil(func() bool { return done == 2 })
	if done != 2 {
		t.Fatal("accesses never completed under way-reservation pressure")
	}
	if h.c.MSHRStalls != 1 {
		t.Fatalf("MSHRStalls = %d, want 1 (reserved-way exhaustion)", h.c.MSHRStalls)
	}
	if h.c.Misses != 2 || h.c.Fills != 2 {
		t.Fatalf("misses=%d fills=%d, want 2/2", h.c.Misses, h.c.Fills)
	}
}

// Structurally stalled misses retry in FIFO order: the queue preserves
// arrival order across fills.
func TestStalledRetryFIFOOrder(t *testing.T) {
	cfg := llcConfig()
	cfg.MSHRs = 1
	h := newHarness(t, cfg)

	addrs := []uint64{0x0, 0x10000, 0x20000, 0x30000}
	var order []uint64
	for _, addr := range addrs {
		a := addr
		p := core.NewPacket(h.ids, core.KindMemRead, 1, a, 64, h.e.Now())
		p.OnDone = func(*core.Packet) { order = append(order, a) }
		h.c.Request(p)
	}
	h.e.StepUntil(func() bool { return len(order) == len(addrs) })
	for i, addr := range addrs {
		if order[i] != addr {
			t.Fatalf("completion order %#x, want %v (FIFO)", order, addrs)
		}
	}
}

// Coalesced waiters with a write among them install the block dirty, so
// its later eviction writes back.
func TestCoalescedWriteMarksDirty(t *testing.T) {
	h := newHarness(t, llcConfig())
	done := 0
	for _, kind := range []core.Kind{core.KindMemRead, core.KindMemWrite, core.KindMemRead} {
		p := core.NewPacket(h.ids, core.KindMemRead, 1, 0x100, 64, h.e.Now())
		p.Kind = kind
		p.OnDone = func(*core.Packet) { done++ }
		h.c.Request(p)
	}
	h.e.StepUntil(func() bool { return done == 3 })
	if h.c.Fills != 1 || h.mem.reads != 1 {
		t.Fatalf("fills=%d memreads=%d, want 1/1 (coalesced)", h.c.Fills, h.mem.reads)
	}
	if h.c.InvalidateDSID(1) != 1 {
		t.Fatal("coalesced block not installed")
	}
	if h.c.Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1 (write waiter dirtied the block)", h.c.Writebacks)
	}
}

// The steady-state hit chain — pooled NewPacket, Request, the scheduled
// lookup, Complete, recycle — allocates nothing (the tentpole contract
// referenced from Cache.Request's doc comment).
func TestRequestChainZeroAlloc(t *testing.T) {
	h := newHarness(t, llcConfig())
	h.ids.EnablePool()
	// Warm every lazily-created structure: the line, the plane's stat
	// row, the miss-ratio meter, the event heap, the packet pool.
	for i := 0; i < 8; i++ {
		h.access(t, core.KindMemRead, 1, 0x200)
	}
	allocs := testing.AllocsPerRun(200, func() {
		p := core.NewPacket(h.ids, core.KindMemRead, 1, 0x200, 64, h.e.Now())
		h.c.Request(p)
		for !p.Completed() {
			h.e.Step()
		}
	})
	if allocs != 0 {
		t.Fatalf("hit chain allocated %.1f times per access, want 0", allocs)
	}
}
