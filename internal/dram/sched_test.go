package dram

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// install switches c's memory plane to algo, as the scheduler node does.
func install(t *testing.T, c *Controller, algo string) {
	t.Helper()
	if err := c.Plane().InstallScheduler(algo); err != nil {
		t.Fatalf("InstallScheduler(%q): %v", algo, err)
	}
}

// hotRows are the base addresses of four rows, two on bank 0 and two
// on bank 1 (rows interleave across the 16 banks every 1 KiB).
var hotRows = []uint64{0, 16 << 10, 1 << 10, 17 << 10}

// runWorkload drives a deterministic random workload (seeded) against a
// fresh controller under the default FR-FCFS scheduler and returns the
// controller plus every packet's completion time in issue order. Half
// the accesses fall in the hot rows, so row hits and row conflicts
// queue on the same banks and FR-FCFS's row-hit-first term decides
// issue order; the rest spread uniformly over 16 MiB.
func runWorkload(t *testing.T, seed int64, n int) (*Controller, []sim.Tick) {
	t.Helper()
	e, c, ids := newCtrl(true)
	c.Plane().Params().SetName(1, ParamPriority, 1)
	r := rand.New(rand.NewSource(seed))
	var pkts []*core.Packet
	for i := 0; i < n; i++ {
		ds := core.DSID(r.Intn(3))
		kind := core.KindMemRead
		if r.Intn(2) == 0 {
			kind = core.KindWriteback
		}
		addr := uint64(r.Intn(1<<24)) &^ 63
		if r.Intn(2) == 0 {
			addr = hotRows[r.Intn(len(hotRows))] + uint64(r.Intn(16))*64
		}
		p := core.NewPacket(ids, kind, ds, addr, 64, e.Now())
		c.Request(p)
		pkts = append(pkts, p)
		if r.Intn(4) == 0 {
			e.Run(e.Now() + sim.Tick(r.Intn(200))*sim.Nanosecond)
		}
	}
	waitAll(e, pkts...)
	done := make([]sim.Tick, len(pkts))
	for i, p := range pkts {
		if !p.Completed() {
			t.Fatalf("seed %d: packet %d never completed", seed, i)
		}
		done[i] = p.Done
	}
	return c, done
}

// doneHash is the FNV-64a hash of completion ticks, one "%d\n" each.
func doneHash(done []sim.Tick) string {
	h := fnv.New64a()
	for _, d := range done {
		fmt.Fprintf(h, "%d\n", d)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestPIFOFRFCFSEquivalence pins the memory plane's FR-FCFS trajectory
// on a randomized mixed-priority workload: per seed, the hash of every
// packet's completion tick. The hashes were recorded while the
// hard-coded per-level FR-FCFS scan still ran beside the PIFO rank
// function, and both produced them, so the rank function that remains
// keeps the scan's schedule. Every seed must see row hits: without them
// the row-hit-first term of the rank is never on the path.
func TestPIFOFRFCFSEquivalence(t *testing.T) {
	for _, g := range []struct {
		seed int64
		want string
	}{
		{1, "4856fad3cd35bd3c"},
		{7, "078ee9393ae073ab"},
		{42, "53e5b400aae684b7"},
		{1234, "73969b41236ec1d6"},
	} {
		c, done := runWorkload(t, g.seed, 400)
		if c.RowHits == 0 {
			t.Fatalf("seed %d: no row hits in %d served", g.seed, c.Served)
		}
		if got := doneHash(done); got != g.want {
			t.Errorf("seed %d: completion hash %s, golden %s", g.seed, got, g.want)
		}
	}
}

// TestStrictPriorityRank: under the strict rank function, a backlogged
// bank serves the high-priority tenant ahead of the queued low-priority
// backlog, FIFO within a level.
func TestStrictPriorityRank(t *testing.T) {
	e, c, ids := newCtrl(true)
	install(t, c, SchedStrict)
	c.Plane().Params().SetName(7, ParamPriority, 3)
	rowStride := uint64(c.cfg.RowBytes * c.totalBanks())
	var lows []*core.Packet
	for i := 0; i < 8; i++ {
		lows = append(lows, read(e, c, ids, 1, uint64(i)*rowStride)) // bank 0, conflicting rows
	}
	hi := read(e, c, ids, 7, 3*rowStride)
	waitAll(e, append(lows, hi)...)
	doneBefore := 0
	for _, p := range lows {
		if p.Done < hi.Done {
			doneBefore++
		}
	}
	// At most the request already in flight may finish first.
	if doneBefore > 1 {
		t.Fatalf("%d low-priority requests served before the strict-priority one", doneBefore)
	}
}

// TestEDFRankProtectsLatencyTenant: a tenant with a tight lat_target
// jumps a best-effort backlog under EDF; without the deadline (plain
// FR-FCFS) the same request waits behind the queue.
func TestEDFRankProtectsLatencyTenant(t *testing.T) {
	run := func(algo string) (sim.Tick, sim.Tick) {
		e, c, ids := newCtrl(true)
		install(t, c, algo)
		c.Plane().SetParam(7, ParamLatTarget, 500) // 500 ns deadline
		rowStride := uint64(c.cfg.RowBytes * c.totalBanks())
		var bulk []*core.Packet
		for i := 0; i < 12; i++ {
			bulk = append(bulk, read(e, c, ids, 1, uint64(i)*rowStride)) // bank 0 backlog
		}
		lat := read(e, c, ids, 7, 5*rowStride)
		waitAll(e, append(bulk, lat)...)
		return lat.Latency(), lat.Done
	}
	edfLat, _ := run(SchedEDF)
	fcfsLat, _ := run(SchedFRFCFS)
	if edfLat >= fcfsLat {
		t.Fatalf("EDF latency %v not better than FR-FCFS %v for the deadline tenant", edfLat, fcfsLat)
	}
}

// TestEDFBestEffortOrdersFCFS: with no lat_target set anywhere, EDF
// deadlines are arrival + defaultDeadline, so the schedule degrades to
// plain FCFS ordering by arrival (a sanity anchor for the rank math).
func TestEDFBestEffortOrdersFCFS(t *testing.T) {
	e, c, ids := newCtrl(true)
	install(t, c, SchedEDF)
	rowStride := uint64(c.cfg.RowBytes * c.totalBanks())
	var pkts []*core.Packet
	for i := 0; i < 6; i++ {
		pkts = append(pkts, read(e, c, ids, core.DSID(i%3), uint64(i)*rowStride))
	}
	waitAll(e, pkts...)
	for i := 1; i < len(pkts); i++ {
		if pkts[i].Done <= pkts[i-1].Done {
			t.Fatalf("best-effort EDF served out of arrival order: pkt %d done %v, pkt %d done %v",
				i-1, pkts[i-1].Done, i, pkts[i].Done)
		}
	}
}

// TestSetSchedulerMigratesBacklog: switching algorithms mid-backlog
// loses no requests in either direction. The backlog stays in the one
// PIFO; the new rank function orders it from the next slot on.
func TestSetSchedulerMigratesBacklog(t *testing.T) {
	e, c, ids := newCtrl(true)
	rowStride := uint64(c.cfg.RowBytes * c.totalBanks())
	var pkts []*core.Packet
	for i := 0; i < 10; i++ {
		pkts = append(pkts, read(e, c, ids, core.DSID(i%2), uint64(i)*rowStride))
	}
	install(t, c, SchedEDF)
	for i := 10; i < 15; i++ {
		pkts = append(pkts, read(e, c, ids, 1, uint64(i)*rowStride))
	}
	install(t, c, SchedFRFCFS)
	for i := 15; i < 20; i++ {
		pkts = append(pkts, read(e, c, ids, 2, uint64(i)*rowStride))
	}
	waitAll(e, pkts...)
	if c.Served != 20 {
		t.Fatalf("Served = %d after two scheduler swaps, want 20", c.Served)
	}
}

// TestSetSchedulerValidation: the memory plane declares its algorithms,
// reports the one in force, and rejects any other name — the retired
// pifo-frfcfs included, which only the .pard compiler still accepts —
// with an error that names the algorithms it has.
func TestSetSchedulerValidation(t *testing.T) {
	_, c, _ := newCtrl(true)
	if got := strings.Join(c.Plane().SchedulerAlgos(), ","); got != "frfcfs,strict,edf" {
		t.Fatalf("SchedulerAlgos = %s, want frfcfs,strict,edf", got)
	}
	for _, bad := range []string{"wfq2", "pifo-frfcfs"} {
		err := c.Plane().InstallScheduler(bad)
		if err == nil || !strings.Contains(err.Error(), "have frfcfs, strict, edf") {
			t.Fatalf("InstallScheduler(%q) = %v, want an error naming frfcfs, strict, edf", bad, err)
		}
	}
	if got := c.Plane().SchedulerAlgo(); got != SchedFRFCFS {
		t.Fatalf("SchedulerAlgo = %q, want %q", got, SchedFRFCFS)
	}
	install(t, c, SchedEDF)
	if got := c.Plane().SchedulerAlgo(); got != SchedEDF {
		t.Fatalf("SchedulerAlgo = %q after install, want %q", got, SchedEDF)
	}
}
