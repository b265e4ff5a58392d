package cache

import (
	"slices"
	"testing"

	"repro/internal/core"
)

// issue sends a read without running the engine and returns its packet;
// done, when set, records each completion's address in order.
func (h *harness) issue(ds core.DSID, addr uint64, done *[]uint64) *core.Packet {
	p := core.NewPacket(h.ids, core.KindMemRead, ds, addr, 64, h.e.Now())
	if done != nil {
		p.OnDone = func(p *core.Packet) { *done = append(*done, p.Addr) }
	}
	h.c.Request(p)
	return p
}

// lookups runs the engine until every issued access has had its first
// tag lookup, so the MSHR file holds what they allocated.
func (h *harness) lookups(t *testing.T, n int) {
	t.Helper()
	if !h.e.StepUntil(func() bool { return h.c.Hits+h.c.Misses == uint64(n) }) {
		t.Fatalf("%d lookups never ran", n)
	}
}

// An MSHR is keyed by block and DS-id, as the LLC's lines are: two
// DS-ids missing on one block each get an MSHR and a fill of their own.
func TestMSHRPerDSIDOnOneBlock(t *testing.T) {
	h := newHarness(t, llcConfig())
	a, b := h.issue(1, 0x8000, nil), h.issue(2, 0x8000, nil)
	h.lookups(t, 2)
	if len(h.c.mshrs) != 2 {
		t.Fatalf("%d MSHRs for two DS-ids on one block, want 2", len(h.c.mshrs))
	}
	h.e.StepUntil(func() bool { return a.Completed() && b.Completed() })
	if h.mem.reads != 2 || h.c.Occupancy(1) != 1 || h.c.Occupancy(2) != 1 {
		t.Fatalf("fills %d, occupancy %d/%d; want 2 fills and one block each",
			h.mem.reads, h.c.Occupancy(1), h.c.Occupancy(2))
	}
}

// A second miss by the same DS-id on the same block waits on the first
// one's MSHR; a miss on another block takes an MSHR of its own.
func TestMSHRCoalescesSameDSID(t *testing.T) {
	h := newHarness(t, llcConfig())
	h.issue(1, 0x8000, nil)
	h.issue(1, 0x8000, nil)
	h.issue(1, 0x9000, nil)
	h.lookups(t, 3)
	if len(h.c.mshrs) != 2 {
		t.Fatalf("%d MSHRs, want 2 (one per block)", len(h.c.mshrs))
	}
	if i := h.c.mshr(mshrKey{block: 0x8000, ds: 1}); i < 0 || len(h.c.mshrs[i].waiters) != 2 {
		t.Fatal("the second miss on 0x8000 did not coalesce onto the first")
	}
}

// At the MSHRs bound the next miss stalls, and it retries once a fill
// frees an entry.
func TestMSHRBoundStallsThenRetries(t *testing.T) {
	cfg := llcConfig()
	cfg.MSHRs = 2
	h := newHarness(t, cfg)
	var done []uint64
	for _, addr := range []uint64{0x10000, 0x20000, 0x30000} {
		h.issue(1, addr, &done)
	}
	h.lookups(t, 3)
	if len(h.c.mshrs) != 2 || h.c.MSHRStalls != 1 || h.c.spifo.Len() != 1 {
		t.Fatalf("MSHRs %d, stalls %d, stalled %d; want 2, 1, 1",
			len(h.c.mshrs), h.c.MSHRStalls, h.c.spifo.Len())
	}
	h.e.StepUntil(func() bool { return len(done) == 3 })
	if !slices.Equal(done, []uint64{0x10000, 0x20000, 0x30000}) || h.mem.reads != 3 {
		t.Fatalf("completed %#x with %d fills; want all three, the stalled one last", done, h.mem.reads)
	}
}

// InvalidateDSID completes the waiters of a dead DS-id's in-flight
// fills in block order, whatever order the MSHR file holds them in.
func TestInvalidateCompletesDeadWaitersInBlockOrder(t *testing.T) {
	h := newHarness(t, llcConfig())
	var done []uint64
	for _, addr := range []uint64{0x3000, 0x1000, 0x4000, 0x2000} {
		h.issue(1, addr, &done)
	}
	h.issue(2, 0x1000, nil)
	h.lookups(t, 5)
	h.c.InvalidateDSID(1)
	if !slices.Equal(done, []uint64{0x1000, 0x2000, 0x3000, 0x4000}) {
		t.Fatalf("dead waiters completed in order %#x, want block order", done)
	}
}
