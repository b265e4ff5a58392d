// Package cache models PARD's cache hierarchy: a generic set-associative
// write-back cache used for private L1s and for the shared last-level
// cache (LLC). The LLC variant stores an owner DS-id per block, applies
// per-DS-id way-mask partitioning to victim selection, and carries the
// LLC control plane (paper §4.2, Figure 4).
package cache

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Policy selects the replacement policy. All policies honor PARD's
// way-mask constraint on victim selection.
type Policy uint8

// Replacement policies.
const (
	PolicyPLRU   Policy = iota // tree pseudo-LRU (the paper's design)
	PolicyLRU                  // true LRU via per-line access stamps
	PolicyRandom               // seeded random among allowed ways
)

func (p Policy) String() string {
	switch p {
	case PolicyPLRU:
		return "plru"
	case PolicyLRU:
		return "lru"
	case PolicyRandom:
		return "random"
	}
	return "policy?"
}

// Config describes one cache instance.
type Config struct {
	Name       string
	SizeBytes  int
	Ways       int
	BlockSize  int
	HitLatency uint64 // cycles in the cache's clock domain

	// Policy is the replacement policy; zero value is PolicyPLRU.
	Policy Policy
	// Seed drives PolicyRandom.
	Seed int64

	// MSHRs bounds outstanding misses; further misses queue behind a
	// structural stall. 0 means a generous default.
	MSHRs int

	// ControlPlane instantiates the LLC control plane (way partitioning,
	// statistics, triggers). L1s leave it false.
	ControlPlane bool
	TriggerSlots int
	// SampleInterval is the statistics window for miss-rate publication
	// and trigger evaluation. 0 means core.DefaultSampleInterval.
	SampleInterval sim.Tick
}

// A block of the tag array is one word: the tag above the owner DS-id
// above two state bits, so a hit test is one masked compare.
const (
	blockValid = 1 << 0
	blockDirty = 1 << 1
	ownerShift = 2  // bits 2-17: the owner DS-id (core.DSID is 16 bits)
	tagShift   = 18 // bits 18-63: the tag

	// physAddrBits is the physical address width, the x86-64 value.
	// Every address a cache sees fits in it, so a tag (the address less
	// its set-index and block-offset bits) fits above the owner and
	// state bits: New checks the geometry against it, Request each
	// address.
	physAddrBits = 48
)

// blockOwner returns the owner DS-id of block word b.
func blockOwner(b uint64) core.DSID { return core.DSID(b >> ownerShift) }

type mshrKey struct {
	block uint64
	ds    core.DSID
}

// mshrEntry is one MSHR: the (block, DS-id) key it is searched by, and
// the accesses waiting on its fill.
type mshrEntry struct {
	key     mshrKey
	waiters []*core.Packet
	way     int
	set     uint64
	victim  uint64 // evicted block word (for accounting already applied)
	// dead marks an entry whose DS-id was invalidated while its fill was
	// in flight: the arriving block must not be installed. If a
	// new-epoch request coalesces onto a dead entry before the stale
	// fill lands, the entry is retargeted (refetched) instead.
	dead bool
}

// Cache is one cache level. It accepts KindMemRead / KindMemWrite /
// KindWriteback packets and forwards misses to the next level.
type Cache struct {
	cfg    Config
	engine *sim.Engine
	clock  *sim.Clock
	ids    *core.IDSource
	next   core.Target

	numBlocks int
	// blocks is the tag array, one word per block, set-major:
	// block w of set s is blocks[s<<wayShift + w].
	blocks []uint64
	// An address splits by shift and mask: the low blockShift bits are
	// the block offset, the next setShift bits the set index, the rest
	// the tag. wayShift is log2(ways).
	blockShift, setShift, wayShift uint
	setMask                        uint64
	trees                          []plru
	// lastUse stamps each block's most recent access (PolicyLRU),
	// indexed as blocks is.
	lastUse []uint64
	useTick uint64
	rng     uint64 // xorshift state for PolicyRandom
	// reserved marks ways with an in-flight fill, per set; they must
	// not be chosen as victims until the fill lands.
	reserved []uint64

	// mshrs is the MSHR file: the live entries, at most cfg.MSHRs of
	// them, searched by key as the hardware's CAM is (see mshr).
	mshrs []*mshrEntry

	// spifo is the MSHR stall queue: misses waiting for a free MSHR or
	// way, in a PIFO at constant rank, so seq (push order) is the
	// schedule — FIFO.
	spifo core.PIFO[*core.Packet]

	// entryPool recycles mshrEntry structs so the steady-state miss path
	// does not allocate.
	entryPool []*mshrEntry

	// Prebound callbacks, created once in New so the per-request path
	// schedules through packet event slots without building closures.
	lookupFn   func(*core.Packet) // first tag lookup
	retryFn    func(*core.Packet) // retry after a structural stall
	fillDoneFn func(*core.Packet) // fill read returned from next level

	// Flight-recorder hop (nil rec disables; every rec call is nil-safe).
	rec *trace.Recorder
	hop int

	plane *core.Plane // nil without a control plane

	// occupancy[ds] counts the blocks ds owns.
	occupancy []uint64

	// Aggregate counters (all DS-ids), for tests and reports.
	Hits, Misses, Writebacks, Fills uint64
	MSHRStalls                      uint64

	// Writeback attribution, for the paper's §4.1 design-choice
	// ablation: PARD tags a writeback with the evicted block's owner;
	// a naive design would tag it with the evicting requester. Both are
	// indexed by DS-id and reach only the largest DS-id counted.
	WritebacksByOwner     []uint64
	WritebacksByRequester []uint64
}

// Statistic and parameter column names of the LLC control plane (Table 3).
const (
	ParamWayMask = "waymask"

	StatHitCnt   = "hit_cnt"
	StatMissCnt  = "miss_cnt"
	StatMissRate = "miss_rate" // 0.1% units, windowed
	StatCapacity = "capacity"  // blocks currently owned
)

// Column indices of the LLC control plane's parameter and statistics
// tables, in Table 3 order.
const colWayMask = 0

const (
	colHitCnt = iota
	colMissCnt
	colMissRate
	colCapacity
)

// SchedFIFO is the cache plane's scheduling algorithm (the .pard
// `schedule cache <algo>` catalogue): stalled misses retry in arrival
// order.
const SchedFIFO = "fifo"

// New builds a cache. next receives fill reads and writebacks.
func New(e *sim.Engine, clock *sim.Clock, ids *core.IDSource, cfg Config, next core.Target) *Cache {
	if !isPow2(cfg.Ways) || cfg.Ways > 64 {
		panic(fmt.Sprintf("cache %s: ways must be a power of two <= 64, got %d", cfg.Name, cfg.Ways))
	}
	if !isPow2(cfg.BlockSize) {
		panic(fmt.Sprintf("cache %s: block size must be a power of two, got %d", cfg.Name, cfg.BlockSize))
	}
	if cfg.SizeBytes%(cfg.BlockSize*cfg.Ways) != 0 {
		panic(fmt.Sprintf("cache %s: size %d not divisible by ways*block", cfg.Name, cfg.SizeBytes))
	}
	sets := cfg.SizeBytes / (cfg.BlockSize * cfg.Ways)
	if !isPow2(sets) {
		panic(fmt.Sprintf("cache %s: size %d gives %d sets; the set count must be a power of two, so size must be ways*block (%d) times a power of two",
			cfg.Name, cfg.SizeBytes, sets, cfg.BlockSize*cfg.Ways))
	}
	blockShift, setShift := log2(cfg.BlockSize), log2(sets)
	if tagBits := physAddrBits - int(blockShift+setShift); tagBits+tagShift > 64 {
		panic(fmt.Sprintf("cache %s: a %d-bit tag (%d-bit addresses less %d index and offset bits) does not fit above the %d owner and state bits of a block word; use a larger block or more sets",
			cfg.Name, tagBits, physAddrBits, blockShift+setShift, tagShift))
	}
	if cfg.MSHRs == 0 {
		cfg.MSHRs = 64
	}
	if cfg.TriggerSlots == 0 {
		cfg.TriggerSlots = 64
	}
	c := &Cache{
		cfg:        cfg,
		engine:     e,
		clock:      clock,
		ids:        ids,
		next:       next,
		numBlocks:  sets * cfg.Ways,
		blocks:     make([]uint64, sets*cfg.Ways),
		blockShift: blockShift,
		setShift:   setShift,
		wayShift:   log2(cfg.Ways),
		setMask:    uint64(sets - 1),
		trees:      make([]plru, sets),
		reserved:   make([]uint64, sets),
		mshrs:      make([]*mshrEntry, 0, cfg.MSHRs),
	}
	if cfg.Policy == PolicyLRU {
		c.lastUse = make([]uint64, sets*cfg.Ways)
	}
	c.rng = uint64(cfg.Seed)
	if c.rng == 0 {
		c.rng = 0x9E3779B97F4A7C15
	}
	//pardlint:hotpath prebound lookup callback: one per Request
	c.lookupFn = func(p *core.Packet) { c.lookupStep(p, false) }
	//pardlint:hotpath prebound retry callback after a structural stall
	c.retryFn = func(p *core.Packet) { c.lookupStep(p, true) }
	// A fill read's address and DS-id are exactly its MSHR key, so one
	// shared completion callback serves every fill.
	//pardlint:hotpath prebound fill-completion callback
	c.fillDoneFn = func(p *core.Packet) {
		c.fill(mshrKey{block: p.Addr, ds: p.DSID}, false)
	}
	if cfg.ControlPlane {
		params := [...]core.Column{
			colWayMask: {Name: ParamWayMask, Writable: true, Default: 1<<uint(cfg.Ways) - 1},
		}
		stats := [...]core.Column{
			colHitCnt:   {Name: StatHitCnt},
			colMissCnt:  {Name: StatMissCnt},
			colMissRate: {Name: StatMissRate, Window: core.WindowMean, Scale: 1000},
			colCapacity: {Name: StatCapacity},
		}
		c.plane = core.NewPlane(e, "CACHE_CP", core.PlaneTypeCache,
			core.NewTable(params[:]...), core.NewTable(stats[:]...), cfg.TriggerSlots)
		c.plane.SetSchedulerHook([]string{SchedFIFO}, nil)
		c.plane.Sample(cfg.SampleInterval)
	}
	return c
}

// AttachRecorder wires the ICN flight recorder into this cache's
// request path under the cache's configured name and returns the hop
// id. Call before traffic.
func (c *Cache) AttachRecorder(r *trace.Recorder) int {
	c.rec = r
	c.hop = r.RegisterHop(c.cfg.Name)
	return c.hop
}

// Plane returns the control plane, or nil for planeless caches.
func (c *Cache) Plane() *core.Plane { return c.plane }

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// NumBlocks returns total block capacity.
func (c *Cache) NumBlocks() int { return c.numBlocks }

// Occupancy returns the number of blocks currently owned by ds.
func (c *Cache) Occupancy(ds core.DSID) uint64 { return core.At(c.occupancy, ds) }

// OccupancyBytes returns ds's occupancy in bytes (Figure 7's y-axis).
func (c *Cache) OccupancyBytes(ds core.DSID) uint64 {
	return c.Occupancy(ds) * uint64(c.cfg.BlockSize)
}

func (c *Cache) blockAddr(addr uint64) uint64 { return addr &^ uint64(c.cfg.BlockSize-1) }
func (c *Cache) setIndex(block uint64) uint64 { return block >> c.blockShift & c.setMask }
func (c *Cache) tagOf(block uint64) uint64    { return block >> (c.blockShift + c.setShift) }

// way returns the tag-array index of way w of set si.
func (c *Cache) way(si uint64, w int) uint64 { return si<<c.wayShift + uint64(w) }

// Request accepts a packet. Lookup completes HitLatency cycles later;
// the control-plane parameter lookup overlaps the tag pipeline and adds
// no cycles (verified by exp TestLLCLatencyZeroOverhead). The delay is
// scheduled through the packet's embedded event slot, so the whole
// Request→lookup chain is allocation-free in steady state
// (TestRequestChainZeroAlloc).
func (c *Cache) Request(p *core.Packet) {
	if p.Addr>>physAddrBits != 0 {
		c.addrTooWide(p)
	}
	c.rec.Enter(c.hop, p)
	p.ScheduleCall(c.clock, c.cfg.HitLatency, c.lookupFn)
}

// addrTooWide panics on an address beyond physAddrBits: its tag would
// not fit in a block word. Not inlined, so the cold formatting stays
// out of Request's frame.
//
//go:noinline
func (c *Cache) addrTooWide(p *core.Packet) {
	panic(fmt.Sprintf("cache %s: %s: address %#x is wider than the %d-bit physical address space",
		c.cfg.Name, p, p.Addr, physAddrBits))
}

// lookupStep performs the tag lookup. retry marks the re-execution of a
// structurally stalled access: the access was already classified (and
// counted) on its first attempt, so a retry never touches the hit/miss
// statistics again — each access is counted exactly once however many
// times it stalls.
func (c *Cache) lookupStep(p *core.Packet, retry bool) {
	if retry {
		// The structural stall is over: everything before this retry was
		// queue wait, everything after is service.
		c.rec.Service(c.hop, p)
	}
	block := c.blockAddr(p.Addr)
	si := c.setIndex(block)
	base := c.way(si, 0)
	set := c.blocks[base : base+uint64(c.cfg.Ways)]

	// An LLC hit requires both the address tag and the owner DS-id to
	// match: LDoms have overlapping guest-physical spaces (paper §4.2
	// footnote 4). Both sit in the block word beside the valid bit.
	want := c.tagOf(block)<<tagShift | uint64(p.DSID)<<ownerShift | blockValid
	for w, b := range set {
		if b&^blockDirty == want {
			c.hit(p, si, w, retry)
			return
		}
	}
	c.miss(p, block, si, retry)
}

func (c *Cache) hit(p *core.Packet, si uint64, w int, retry bool) {
	if !retry {
		c.Hits++
		c.account(p.DSID, true)
	}
	c.touch(si, w)
	if p.Kind.IsWrite() {
		c.blocks[c.way(si, w)] |= blockDirty
	}
	c.rec.Finish(c.hop, p)
	p.Complete(c.engine.Now())
	if retry {
		// A retried access that hits (its block was filled under another
		// access's MSHR while it sat stalled) consumed the one wakeup
		// that fill granted without issuing a fill of its own. Pass the
		// wakeup on, or the rest of the stall queue sleeps forever once
		// no fills remain in flight.
		c.retryStalled()
	}
}

func (c *Cache) miss(p *core.Packet, block, si uint64, retry bool) {
	if !retry {
		// Counted on the first attempt only: a stalled access that
		// re-enters via the retry path must not inflate miss_rate
		// (the Fig. 9 trigger condition) a second time.
		c.Misses++
		c.account(p.DSID, false)
	}

	key := mshrKey{block: block, ds: p.DSID}
	if i := c.mshr(key); i >= 0 {
		e := c.mshrs[i]
		e.waiters = append(e.waiters, p)
		return
	}
	if len(c.mshrs) >= c.cfg.MSHRs {
		c.stall(p, retry)
		return
	}
	c.allocateMiss(p, key, si, retry)
}

// stall parks p on the structural-stall queue. Like hits and misses,
// the MSHRStalls statistic counts each access at most once: a stalled
// access that retries and stalls again (MSHR freed but every allowed
// way reserved, or vice versa) used to be counted at both stall sites,
// inflating the stat the .pard triggers read.
func (c *Cache) stall(p *core.Packet, retry bool) {
	if !retry {
		c.MSHRStalls++
	}
	c.spifo.Push(p, 0)
}

func (c *Cache) allocateMiss(p *core.Packet, key mshrKey, si uint64, retry bool) {
	w, ok := c.evict(si, p.DSID)
	if !ok {
		// Every allowed way has a fill in flight: structural stall
		// until one lands.
		c.stall(p, retry)
		return
	}
	i := c.way(si, w)
	victim := c.blocks[i]
	c.blocks[i] = 0
	c.reserved[si] |= 1 << uint(w) // hold the way until the fill lands

	e := c.getEntry()
	e.waiters = append(e.waiters, p)
	e.key, e.way, e.set, e.victim = key, w, si, victim
	c.mshrs = append(c.mshrs, e)

	if victim&(blockValid|blockDirty) == blockValid|blockDirty {
		c.writeback(si, victim, p.DSID)
	}

	if p.Kind == core.KindWriteback {
		// A writeback carries the whole block: install directly without
		// fetching from the next level.
		c.fill(key, true)
		return
	}
	c.issueFill(key)
}

// issueFill sends the block fetch for key to the next level. The fill's
// address/DS-id are the MSHR key, so the shared fillDoneFn callback can
// route its completion without a per-fill closure.
func (c *Cache) issueFill(key mshrKey) {
	fill := core.NewPacket(c.ids, core.KindMemRead, key.ds, key.block, uint32(c.cfg.BlockSize), c.engine.Now())
	fill.OnDone = c.fillDoneFn
	c.rec.Begin(c.hop, fill)
	c.next.Request(fill)
}

// mshr searches the MSHR file for key and returns the entry's index, or
// -1 when no miss on key is outstanding.
func (c *Cache) mshr(key mshrKey) int {
	for i, e := range c.mshrs {
		if e.key == key {
			return i
		}
	}
	return -1
}

// unlinkMSHR removes entry i from the MSHR file, moving the last entry
// into its slot.
func (c *Cache) unlinkMSHR(i int) {
	last := len(c.mshrs) - 1
	c.mshrs[i] = c.mshrs[last]
	c.mshrs[last] = nil
	c.mshrs = c.mshrs[:last]
}

// getEntry pops a recycled MSHR entry, or allocates the pool's first.
func (c *Cache) getEntry() *mshrEntry {
	if n := len(c.entryPool); n > 0 {
		e := c.entryPool[n-1]
		c.entryPool[n-1] = nil
		c.entryPool = c.entryPool[:n-1]
		return e
	}
	//pardlint:ignore hotalloc pool miss: amortized to zero once entryPool reaches steady-state depth
	return &mshrEntry{}
}

// putEntry clears and recycles an MSHR entry.
func (c *Cache) putEntry(e *mshrEntry) {
	for i := range e.waiters {
		e.waiters[i] = nil
	}
	e.waiters = e.waiters[:0]
	e.key, e.way, e.set, e.victim, e.dead = mshrKey{}, 0, 0, 0, false
	c.entryPool = append(c.entryPool, e)
}

// evict picks a victim way for ds, constrained by its way mask when a
// control plane is present and excluding ways with in-flight fills.
// ok is false when every allowed way is reserved.
func (c *Cache) evict(si uint64, ds core.DSID) (w int, ok bool) {
	mask := uint64(1)<<uint(c.cfg.Ways) - 1
	if c.plane != nil {
		m := c.plane.ParamAt(ds, colWayMask) & mask
		if m != 0 {
			mask = m
		}
	}
	mask &^= c.reserved[si]
	if mask == 0 {
		return 0, false
	}
	// Prefer an invalid allowed way.
	base := c.way(si, 0)
	for w := 0; w < c.cfg.Ways; w++ {
		if mask&(1<<uint(w)) != 0 && c.blocks[base+uint64(w)]&blockValid == 0 {
			return w, true
		}
	}
	switch c.cfg.Policy {
	case PolicyLRU:
		best, bestUse := -1, uint64(0)
		for w := 0; w < c.cfg.Ways; w++ {
			if mask&(1<<uint(w)) == 0 {
				continue
			}
			if use := c.lastUse[base+uint64(w)]; best == -1 || use < bestUse {
				best, bestUse = w, use
			}
		}
		return best, true
	case PolicyRandom:
		// xorshift64*, then pick the n-th set bit of the mask.
		c.rng ^= c.rng >> 12
		c.rng ^= c.rng << 25
		c.rng ^= c.rng >> 27
		n := int(c.rng * 0x2545F4914F6CDD1D % uint64(popcount(mask)))
		for w := 0; w < c.cfg.Ways; w++ {
			if mask&(1<<uint(w)) == 0 {
				continue
			}
			if n == 0 {
				return w, true
			}
			n--
		}
		return 0, false // unreachable: mask is nonzero
	default:
		return c.trees[si].victim(c.cfg.Ways, mask), true
	}
}

// touch records an access for the replacement policy.
func (c *Cache) touch(si uint64, w int) {
	switch c.cfg.Policy {
	case PolicyLRU:
		c.useTick++
		c.lastUse[c.way(si, w)] = c.useTick
	case PolicyRandom:
		// stateless
	default:
		c.trees[si] = c.trees[si].touch(c.cfg.Ways, w)
	}
}

// popcount counts set bits.
func popcount(v uint64) int {
	n := 0
	for v != 0 {
		v &= v - 1
		n++
	}
	return n
}

// writeback sends victim's dirty block, the word evicted from set si,
// to the next level. requester is the DS-id whose access forced the
// eviction, counted for the §4.1 ablation only.
func (c *Cache) writeback(si, victim uint64, requester core.DSID) {
	owner := blockOwner(victim)
	c.Writebacks++
	c.WritebacksByOwner = core.GrowTo(c.WritebacksByOwner, owner)
	c.WritebacksByOwner[owner]++
	c.WritebacksByRequester = core.GrowTo(c.WritebacksByRequester, requester)
	c.WritebacksByRequester[requester]++
	addr := (victim>>tagShift<<c.setShift | si) << c.blockShift
	// The writeback is tagged with the block's owner DS-id, not the
	// requester that forced the eviction (paper §4.1).
	wb := core.NewPacket(c.ids, core.KindWriteback, owner, addr, uint32(c.cfg.BlockSize), c.engine.Now())
	c.rec.Begin(c.hop, wb)
	c.next.Request(wb)
}

func (c *Cache) fill(key mshrKey, fromWriteback bool) {
	i := c.mshr(key)
	if i < 0 {
		return
	}
	e := c.mshrs[i]
	if e.dead {
		// The owning DS-id was invalidated while this fill was in
		// flight (InvalidateDSID). Never install the stale block. With
		// no new-epoch waiters, drop the entry: free the way, settle
		// the victim's occupancy, and let a stalled miss retry.
		// Otherwise a recycled DS-id re-requested the block after the
		// teardown: retarget the entry by refetching, so the new
		// requesters are served by fresh data rather than the stale
		// in-flight block.
		if len(e.waiters) == 0 {
			c.reserved[e.set] &^= 1 << uint(e.way)
			if e.victim&blockValid != 0 {
				c.decOccupancy(blockOwner(e.victim))
			}
			c.unlinkMSHR(i)
			c.putEntry(e)
			c.retryStalled()
			return
		}
		e.dead = false
		c.issueFill(key)
		return
	}
	c.unlinkMSHR(i)
	c.Fills++

	b := c.tagOf(key.block)<<tagShift | uint64(key.ds)<<ownerShift | blockValid
	if fromWriteback {
		b |= blockDirty
	}
	for _, w := range e.waiters {
		if w.Kind.IsWrite() {
			b |= blockDirty
		}
	}
	si := e.set
	c.reserved[si] &^= 1 << uint(e.way)
	c.blocks[c.way(si, e.way)] = b
	c.touch(si, e.way)

	// Occupancy accounting: the victim's owner loses a block, the
	// requester gains one (paper footnote 6).
	if e.victim&blockValid != 0 {
		c.decOccupancy(blockOwner(e.victim))
	}
	c.incOccupancy(key.ds)

	now := c.engine.Now()
	for _, w := range e.waiters {
		c.rec.Finish(c.hop, w)
		w.Complete(now)
	}
	c.putEntry(e)

	c.retryStalled()
}

// retryStalled re-dispatches the oldest structurally-stalled miss, in
// FIFO order, after an MSHR or reserved way freed up. The retry skips
// hit/miss accounting (lookupStep's retry flag): the access was counted
// when it first stalled.
func (c *Cache) retryStalled() {
	if p, ok := c.spifo.Pop(); ok {
		p.ScheduleCall(c.clock, 1, c.retryFn)
	}
}

func (c *Cache) incOccupancy(ds core.DSID) {
	c.occupancy = core.GrowTo(c.occupancy, ds)
	c.occupancy[ds]++
	if c.plane != nil {
		c.plane.SetStatAt(ds, colCapacity, c.occupancy[ds])
	}
}

// decOccupancy takes a block from ds, which owned it, so ds has an
// occupancy slot. It publishes capacity only while ds has a statistics
// row: LDom teardown deletes the row before flushing ds's blocks, and
// the flush must not re-create it.
func (c *Cache) decOccupancy(ds core.DSID) {
	if c.occupancy[ds] > 0 {
		c.occupancy[ds]--
	}
	if c.plane != nil && c.plane.Stats().HasRow(ds) {
		c.plane.SetStatAt(ds, colCapacity, c.occupancy[ds])
	}
}

func (c *Cache) account(ds core.DSID, hit bool) {
	if c.plane == nil {
		return
	}
	if hit {
		c.plane.AddStatAt(ds, colHitCnt, 1)
		c.plane.ObserveAt(ds, colMissRate, 0, 1)
	} else {
		c.plane.AddStatAt(ds, colMissCnt, 1)
		c.plane.ObserveAt(ds, colMissRate, 1, 1)
	}
}

// InvalidateDSID evicts every block owned by ds, writing dirty blocks
// back to the next level with the owner tag. The firmware calls this
// during LDom teardown so a recycled DS-id can never hit stale data.
// It returns the number of installed blocks invalidated.
//
// In-flight state is covered too: pending MSHR fills for ds are marked
// dead so the arriving block is never installed (and occupancy never
// re-incremented), their waiters complete immediately, and structurally
// stalled accesses tagged ds are flushed from the retry queue. Without
// this, a fill issued before the teardown would land afterwards and
// re-install a block owned by the dead (possibly recycled) DS-id.
func (c *Cache) InvalidateDSID(ds core.DSID) uint64 {
	// Set-major, way order: the scrub's writebacks leave in that order.
	var n uint64
	owned := uint64(ds)<<ownerShift | blockValid
	const ownerValid = uint64(0xFFFF)<<ownerShift | blockValid
	for i, b := range c.blocks {
		if b&ownerValid != owned {
			continue
		}
		if b&blockDirty != 0 {
			c.writeback(uint64(i)>>c.wayShift, b, ds)
		}
		c.blocks[i] = 0
		n++
		c.decOccupancy(ds)
	}

	now := c.engine.Now()

	// Kill pending fills for ds, completing their waiters in block
	// order.
	var dead []*mshrEntry
	for _, e := range c.mshrs {
		if e.key.ds == ds {
			dead = append(dead, e)
		}
	}
	slices.SortFunc(dead, func(a, b *mshrEntry) int { return cmp.Compare(a.key.block, b.key.block) })
	for _, e := range dead {
		e.dead = true
		// Detach the waiters before completing them: an OnDone callback
		// may issue new traffic that must not land in this slice.
		waiters := append([]*core.Packet(nil), e.waiters...)
		for i := range e.waiters {
			e.waiters[i] = nil
		}
		e.waiters = e.waiters[:0]
		for _, w := range waiters {
			c.rec.Finish(c.hop, w)
			w.Complete(now)
		}
	}

	// Flush stalled accesses for ds; they would otherwise retry into a
	// torn-down domain (or hang if the teardown drained all traffic).
	for _, p := range c.spifo.RemoveWhere(func(p *core.Packet) bool { return p.DSID == ds }) {
		c.rec.Finish(c.hop, p)
		p.Complete(now)
	}
	return n
}

// MissRate returns ds's last-window miss rate in 0.1% units (for tests
// and reports; the firmware reads the same value through the file tree).
func (c *Cache) MissRate(ds core.DSID) uint64 {
	return c.plane.StatAt(ds, colMissRate)
}
