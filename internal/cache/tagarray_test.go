package cache

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// tapMem hashes every packet the cache sends to the next level (kind,
// DS-id, address) as it arrives, then serves it like stubMem.
type tapMem struct {
	stubMem
	sum hash.Hash64
}

func (m *tapMem) Request(p *core.Packet) {
	writeWords(m.sum, uint64(p.Kind), uint64(p.DSID), p.Addr)
	m.stubMem.Request(p)
}

func writeWords(h hash.Hash64, words ...uint64) {
	var b [8]byte
	for _, w := range words {
		binary.LittleEndian.PutUint64(b[:], w)
		h.Write(b[:])
	}
}

// splitmix64 is the streams' generator: fixed by this file, so the
// pinned hashes do not depend on a library's random sequence.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// tagArrayTrajectory runs a seeded stream of reads, writes and
// writebacks through a cache of geometry cfg and returns its hash: each
// burst's completion ticks and hit/miss counts, each packet sent to the
// next level, one InvalidateDSID mid-stream while fills are in flight,
// and the final occupancy per DS-id. Addresses come from the bottom
// and the top of the physical address space and from a pool of tags
// that collide in a few sets.
func tagArrayTrajectory(t *testing.T, cfg Config, seed uint64) string {
	t.Helper()
	e := sim.NewEngine()
	sum := fnv.New64a()
	mem := &tapMem{stubMem: stubMem{e: e, delay: 50 * sim.Nanosecond}, sum: sum}
	ids := &core.IDSource{}
	c := New(e, sim.NewClock(e, 500), ids, cfg, mem)
	if c.Plane() != nil {
		c.Plane().Params().SetName(1, ParamWayMask, 0x00FF)
		c.Plane().Params().SetName(2, ParamWayMask, 0xFF00)
	}

	dsids := []core.DSID{0, 1, 2, 0xFFFE, 0xFFFF}
	const addrSpace = uint64(1) << 48
	block := uint64(cfg.BlockSize)
	sets := uint64(cfg.SizeBytes / (cfg.BlockSize * cfg.Ways))
	maxTag := addrSpace/(sets*block) - 1
	hotSets := []uint64{0, 1 % sets, sets - 1}
	rng := splitmix64(seed)
	addr := func() uint64 {
		switch rng.next() % 3 {
		case 0: // bottom of the address space
			return rng.next() % (1 << 12)
		case 1: // top of the address space
			return addrSpace - 1 - rng.next()%(1<<12)
		default: // one of 24 tags, low and high, in a hot set
			tag := rng.next() % 24
			if tag >= 12 {
				tag = maxTag - (tag - 12)
			}
			set := hotSets[rng.next()%uint64(len(hotSets))]
			return (tag*sets+set)*block + rng.next()%block
		}
	}
	kind := func() core.Kind {
		switch r := rng.next() % 10; {
		case r < 6:
			return core.KindMemRead
		case r < 9:
			return core.KindMemWrite
		default:
			return core.KindWriteback
		}
	}

	const accesses = 3000
	burst := make([]*core.Packet, 0, 4)
	send := func(ds core.DSID) {
		p := core.NewPacket(ids, kind(), ds, addr(), uint32(block), e.Now())
		burst = append(burst, p)
		c.Request(p)
	}
	settle := func() {
		if !e.StepUntil(func() bool {
			for _, p := range burst {
				if !p.Completed() {
					return false
				}
			}
			return true
		}) {
			t.Fatalf("%s: burst never completed", cfg.Name)
		}
		for _, p := range burst {
			writeWords(sum, uint64(p.Done))
		}
		writeWords(sum, c.Hits, c.Misses, c.MSHRStalls)
		burst = burst[:0]
	}
	for i := 0; i < accesses; {
		if i == accesses/2 {
			// Invalidate ds 1 with its own misses still in flight, so
			// dead MSHR entries and the scrub's writebacks are covered.
			for j := 0; j < 3; j++ {
				send(1)
			}
			e.Run(e.Now() + sim.Tick(cfg.HitLatency+1)*500)
			writeWords(sum, c.InvalidateDSID(1))
			settle()
			i += 3
			continue
		}
		n := 1
		if rng.next()%4 == 0 {
			n = 2 + int(rng.next()%3)
		}
		for j := 0; j < n; j++ {
			send(dsids[rng.next()%uint64(len(dsids))])
		}
		settle()
		i += n
	}
	for _, ds := range dsids {
		writeWords(sum, c.Occupancy(ds))
	}
	writeWords(sum, c.Writebacks, c.Fills)
	return fmt.Sprintf("%016x", sum.Sum64())
}

// TestTagArrayTrajectories pins what the tag array's users can observe,
// hashed access by access, on the Table 2 L1 and LLC geometries (the
// LLC also under true LRU, the L1 also under random replacement) and on
// a one-set cache. The hashes were recorded from the 16-byte line
// structs the tag array replaced. A change to the block word's layout,
// the set index or the tag must leave every hash alone.
func TestTagArrayTrajectories(t *testing.T) {
	cases := []struct {
		cfg  Config
		want string
	}{
		{Config{Name: "l1", SizeBytes: 64 << 10, Ways: 2, BlockSize: 64, HitLatency: 2}, "e94ce054d2bbd1cf"},
		{Config{Name: "llc", SizeBytes: 4 << 20, Ways: 16, BlockSize: 64, HitLatency: 20,
			ControlPlane: true, TriggerSlots: 64}, "e69710e97a965cb6"},
		{Config{Name: "llc-lru", SizeBytes: 4 << 20, Ways: 16, BlockSize: 64, HitLatency: 20,
			ControlPlane: true, TriggerSlots: 64, Policy: PolicyLRU}, "ecb346ab4446b4be"},
		{Config{Name: "l1-random", SizeBytes: 64 << 10, Ways: 2, BlockSize: 64, HitLatency: 2,
			Policy: PolicyRandom, Seed: 7}, "ea3e183b786a0324"},
		{Config{Name: "one-set", SizeBytes: 4 * 64, Ways: 4, BlockSize: 64, HitLatency: 1, MSHRs: 2}, "cb837c5c386b4a25"},
	}
	for _, tc := range cases {
		if got := tagArrayTrajectory(t, tc.cfg, 42); got != tc.want {
			t.Errorf("%s: trajectory hash %s, want %s", tc.cfg.Name, got, tc.want)
		}
	}
}

// TestLLCFootprint holds what New allocates for the Table 2 LLC (4 MB,
// 16-way, 64-byte blocks). The tag array is one 8-byte word per block
// in one allocation: New allocates 596,944 B in 21 allocations, where
// 16-byte line structs in one slice per set took 1,219,472 B in 4,117.
func TestLLCFootprint(t *testing.T) {
	cfg := Config{Name: "llc", SizeBytes: 4 << 20, Ways: 16, BlockSize: 64, HitLatency: 20,
		ControlPlane: true, TriggerSlots: 64}
	const maxBytes, maxAllocs = 640 << 10, 32
	bytes, allocs := ^uint64(0), ^uint64(0)
	// The least of three builds, so an allocation elsewhere in the
	// process during one build does not count against New.
	for i := 0; i < 3; i++ {
		e := sim.NewEngine()
		clock, ids, next := sim.NewClock(e, 500), &core.IDSource{}, &stubMem{e: e}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c := New(e, clock, ids, cfg, next)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(c)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		allocs = min(allocs, after.Mallocs-before.Mallocs)
	}
	t.Logf("New(Table 2 LLC): %d B in %d allocations", bytes, allocs)
	if bytes > maxBytes || allocs > maxAllocs {
		t.Fatalf("New(Table 2 LLC) allocated %d B in %d allocations, want at most %d B in %d", bytes, allocs, maxBytes, maxAllocs)
	}
}
