package cache

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

func policyConfig(p Policy) Config {
	return Config{
		Name: "llc", SizeBytes: 8 * 1024, Ways: 8, BlockSize: 64,
		HitLatency: 20, Policy: p, Seed: 11,
	}
}

func newPolicyHarness(t *testing.T, p Policy) *harness {
	t.Helper()
	return newHarness(t, policyConfig(p))
}

func TestLRUEvictsLeastRecent(t *testing.T) {
	h := newPolicyHarness(t, PolicyLRU)
	// One set: 16 sets x 8 ways; use set 0 (addresses stride 16*64).
	stride := uint64(16 * 64)
	// Fill all 8 ways of set 0.
	for i := uint64(0); i < 8; i++ {
		h.access(t, core.KindMemRead, 1, i*stride)
	}
	// Re-touch blocks 1..7 so block 0 is least recent.
	for i := uint64(1); i < 8; i++ {
		h.access(t, core.KindMemRead, 1, i*stride)
	}
	// A new block must evict block 0.
	h.access(t, core.KindMemRead, 1, 8*stride)
	h.c.Hits = 0
	h.access(t, core.KindMemRead, 1, 0) // block 0: must miss (it was LRU)
	if h.c.Hits != 0 {
		t.Fatal("LRU kept the least-recently-used block")
	}
	// That probe evicted the next-LRU block (1); the most recent ones
	// must still be resident.
	h.c.Hits = 0
	h.access(t, core.KindMemRead, 1, 7*stride)
	h.access(t, core.KindMemRead, 1, 8*stride)
	if h.c.Hits != 2 {
		t.Fatalf("LRU evicted recently used blocks (hits=%d, want 2)", h.c.Hits)
	}
}

func TestRandomPolicyStaysInMask(t *testing.T) {
	cfg := policyConfig(PolicyRandom)
	cfg.ControlPlane = true
	h := newHarness(t, cfg)
	h.c.Plane().Params().SetName(1, ParamWayMask, 0x0F) // low 4 of 8 ways
	for i := 0; i < 4*h.c.numBlocks; i++ {
		h.access(t, core.KindMemRead, 1, uint64(i)*64)
	}
	if occ := h.c.Occupancy(1); occ > uint64(4*h.c.numBlocks/h.c.cfg.Ways) {
		t.Fatalf("random policy escaped the way mask: occupancy %d", occ)
	}
}

func TestRandomPolicyDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) uint64 {
		cfg := policyConfig(PolicyRandom)
		cfg.Seed = seed
		e := sim.NewEngine()
		mem := &stubMem{e: e, delay: 10 * sim.Nanosecond}
		c := New(e, sim.NewClock(e, 500), &core.IDSource{}, cfg, mem)
		for i := 0; i < 1000; i++ {
			p := core.NewPacket(&core.IDSource{}, core.KindMemRead, 1, uint64(i%300)*64, 64, e.Now())
			c.Request(p)
			e.StepUntil(p.Completed)
		}
		return c.Hits
	}
	if run(3) != run(3) {
		t.Fatal("random policy not deterministic for a fixed seed")
	}
}

func TestPoliciesRankOnLoopingScan(t *testing.T) {
	// A cyclic scan slightly larger than one set defeats LRU completely
	// (sequential flooding) while random retains some blocks — the
	// classic pathology that motivates pseudo-LRU variants.
	hits := func(p Policy) uint64 {
		h := newPolicyHarness(t, p)
		stride := uint64(16 * 64) // stay in set 0
		for round := 0; round < 40; round++ {
			for i := uint64(0); i < 9; i++ { // 9 blocks, 8 ways
				h.access(t, core.KindMemRead, 1, i*stride)
			}
		}
		return h.c.Hits
	}
	lru := hits(PolicyLRU)
	random := hits(PolicyRandom)
	if lru != 0 {
		t.Fatalf("LRU hits on a 9/8 cyclic scan = %d, want 0 (sequential flooding)", lru)
	}
	if random == 0 {
		t.Fatal("random policy also thrashed completely; expected some retention")
	}
}

func TestAllPoliciesPreserveOccupancyInvariant(t *testing.T) {
	for _, p := range []Policy{PolicyPLRU, PolicyLRU, PolicyRandom} {
		h := newPolicyHarness(t, p)
		for i := 0; i < 3*h.c.numBlocks; i++ {
			ds := core.DSID(i % 3)
			h.access(t, core.KindMemRead, ds, uint64(i*7)*64)
		}
		var total uint64
		for _, occ := range h.c.occupancy {
			total += occ
		}
		valid := validBlocks(h.c)
		if total != valid || total > uint64(h.c.numBlocks) {
			t.Fatalf("policy %v: occupancy %d, valid %d, capacity %d", p, total, valid, h.c.numBlocks)
		}
	}
}

func TestPolicyStrings(t *testing.T) {
	if PolicyPLRU.String() != "plru" || PolicyLRU.String() != "lru" || PolicyRandom.String() != "random" {
		t.Fatal("policy names")
	}
	if Policy(9).String() != "policy?" {
		t.Fatal("unknown policy name")
	}
}
