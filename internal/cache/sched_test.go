package cache

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// varDelayMem completes fills after a per-address delay, so tests can
// control the order in-flight fills land.
type varDelayMem struct {
	e     *sim.Engine
	delay func(addr uint64) sim.Tick
	reads int
}

func (m *varDelayMem) Request(p *core.Packet) {
	if !p.Kind.IsWrite() {
		m.reads++
	}
	d := m.delay(p.Addr)
	m.e.Schedule(d, func() { p.Complete(m.e.Now()) })
}

// TestDoubleStallCountedOnce: an access that stalls structurally twice —
// first on a full MSHR file, then (on retry) on reserved-way exhaustion
// — must count one MSHRStall, not two. The old code incremented at both
// stall sites unconditionally, inflating the stat the .pard triggers
// read.
func TestDoubleStallCountedOnce(t *testing.T) {
	e := sim.NewEngine()
	ids := &core.IDSource{}
	clock := sim.NewClock(e, 500)
	// Fills to set 0 land slowly, set 1 quickly: the fast fill frees an
	// MSHR and triggers the retry while set 0's only way is still
	// reserved by the slow fill.
	mem := &varDelayMem{e: e, delay: func(addr uint64) sim.Tick {
		if addr/64%2 == 0 {
			return 300 * sim.Nanosecond
		}
		return 50 * sim.Nanosecond
	}}
	cfg := Config{Name: "t", SizeBytes: 2 * 64, Ways: 1, BlockSize: 64, HitLatency: 1, MSHRs: 2}
	c := New(e, clock, ids, cfg, mem)

	done := 0
	for _, addr := range []uint64{0x0, 0x40, 0x80} {
		p := core.NewPacket(ids, core.KindMemRead, 1, addr, 64, e.Now())
		p.OnDone = func(*core.Packet) { done++ }
		c.Request(p)
	}
	// 0x0 holds MSHR 1 + set 0's way (slow); 0x40 holds MSHR 2 + set 1's
	// way (fast); 0x80 stalls on the full MSHR file, retries when 0x40's
	// fill frees one, and stalls again on set 0's reserved way.
	e.StepUntil(func() bool { return done == 3 })
	if done != 3 {
		t.Fatal("accesses never completed")
	}
	if c.MSHRStalls != 1 {
		t.Fatalf("MSHRStalls = %d, want 1 (one access stalled, however many times)", c.MSHRStalls)
	}
	if c.Misses != 3 {
		t.Fatalf("Misses = %d, want 3", c.Misses)
	}
}

// TestRetryHitWakesNextStalled: regression for a stall-queue livelock
// the PIFO equivalence sweep exposed. A stalled access whose retry hits
// (its block was filled under another access's MSHR while it waited)
// used to consume the fill's single wakeup without re-arming
// retryStalled — every access still stalled behind it slept forever
// once no fills remained in flight.
func TestRetryHitWakesNextStalled(t *testing.T) {
	cfg := llcConfig()
	cfg.MSHRs = 1
	h := newHarness(t, cfg)

	done := 0
	for _, addr := range []uint64{0x10000, 0x0, 0x0, 0x20000} {
		p := core.NewPacket(h.ids, core.KindMemRead, 1, addr, 64, h.e.Now())
		p.OnDone = func(*core.Packet) { done++ }
		h.c.Request(p)
	}
	// 0x10000 holds the single MSHR; the two 0x0 reads and 0x20000
	// stall. The first 0x0 retry refetches; the second 0x0 retry hits
	// the freshly installed block and must wake 0x20000.
	if !h.e.StepUntil(func() bool { return done == 4 }) {
		t.Fatal("engine drained with accesses outstanding")
	}
	if done != 4 {
		t.Fatal("stall queue slept after a retry hit")
	}
	// Each access keeps its first-attempt classification (all four
	// missed cold), and 0x0 was fetched exactly once: the second 0x0
	// access completed via its retry hit, not a refetch.
	if h.c.Misses != 4 || h.c.Hits != 0 {
		t.Fatalf("hits=%d misses=%d, want 0/4", h.c.Hits, h.c.Misses)
	}
	if h.mem.reads != 3 {
		t.Fatalf("fill reads = %d, want 3 (0x0 fetched once)", h.mem.reads)
	}
}

// doneHash is the FNV-64a hash of completion ticks, one "%d\n" each.
func doneHash(done []sim.Tick) string {
	h := fnv.New64a()
	for _, d := range done {
		fmt.Fprintf(h, "%d\n", d)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestPIFOFIFOEquivalence pins the MSHR stall queue's trajectory under
// sustained MSHR pressure: per seed, the hash of every access's
// completion tick. The hashes were recorded while the FIFO retry slice
// still ran beside the arrival-rank PIFO, and both produced them.
func TestPIFOFIFOEquivalence(t *testing.T) {
	run := func(seed int64) []sim.Tick {
		cfg := llcConfig()
		cfg.MSHRs = 2
		h := newHarness(t, cfg)
		r := rand.New(rand.NewSource(seed))
		var pkts []*core.Packet
		for i := 0; i < 100; i++ {
			addr := uint64(r.Intn(64)) << 16 // distinct tags, set 0: maximal contention
			p := core.NewPacket(h.ids, core.KindMemRead, core.DSID(r.Intn(3)), addr, 64, h.e.Now())
			pkts = append(pkts, p)
			h.c.Request(p)
			if r.Intn(3) == 0 {
				h.e.Run(h.e.Now() + sim.Tick(r.Intn(100))*sim.Nanosecond)
			}
		}
		h.e.StepUntil(func() bool {
			for _, p := range pkts {
				if !p.Completed() {
					return false
				}
			}
			return true
		})
		out := make([]sim.Tick, len(pkts))
		for i, p := range pkts {
			out[i] = p.Done
		}
		return out
	}
	for _, g := range []struct {
		seed int64
		want string
	}{
		{2, "cb8c375d75e3fa7c"},
		{17, "d020f6532d048273"},
		{404, "fa8b2d96295c2cab"},
	} {
		if got := doneHash(run(g.seed)); got != g.want {
			t.Errorf("seed %d: completion hash %s, golden %s", g.seed, got, g.want)
		}
	}
}

// TestCacheSchedulerHookAndMigration: the LLC registers its one
// scheduling algorithm, and the plane rejects any other name — the
// retired pifo-fifo included, which only the .pard compiler still
// accepts.
func TestCacheSchedulerHookAndMigration(t *testing.T) {
	h := newHarness(t, llcConfig())
	if got := h.c.Plane().SchedulerAlgo(); got != SchedFIFO {
		t.Fatalf("SchedulerAlgo = %q, want %q", got, SchedFIFO)
	}
	if err := h.c.Plane().InstallScheduler(SchedFIFO); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"pifo-fifo", "lifo"} {
		err := h.c.Plane().InstallScheduler(bad)
		if err == nil || !strings.Contains(err.Error(), "have fifo") {
			t.Fatalf("InstallScheduler(%q) = %v, want an error naming fifo", bad, err)
		}
	}
}
