// Package cache models PARD's cache hierarchy: a generic set-associative
// write-back cache used for private L1s and for the shared last-level
// cache (LLC). The LLC variant stores an owner DS-id per block, applies
// per-DS-id way-mask partitioning to victim selection, and carries the
// LLC control plane (paper §4.2, Figure 4).
package cache

import (
	"fmt"
	"sort"

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

type line struct {
	tag   uint64
	valid bool
	dirty bool
	owner core.DSID
}

type mshrKey struct {
	block uint64
	ds    core.DSID
}

type mshrEntry struct {
	waiters []*core.Packet
	way     int
	set     uint64
	victim  line // evicted line (for accounting already applied)
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

	sets      int
	numBlocks int
	lines     [][]line
	trees     []plru
	// lastUse stamps each line's most recent access (PolicyLRU).
	lastUse [][]uint64
	useTick uint64
	rng     uint64 // xorshift state for PolicyRandom
	// reserved marks ways with an in-flight fill, per set; they must
	// not be chosen as victims until the fill lands.
	reserved []uint64

	mshrs map[mshrKey]*mshrEntry

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

	// occupancy counts the blocks each DS-id owns.
	occupancy map[core.DSID]uint64

	// Aggregate counters (all DS-ids), for tests and reports.
	Hits, Misses, Writebacks, Fills uint64
	MSHRStalls                      uint64

	// Writeback attribution, for the paper's §4.1 design-choice
	// ablation: PARD tags a writeback with the evicted block's owner;
	// a naive design would tag it with the evicting requester.
	WritebacksByOwner     map[core.DSID]uint64
	WritebacksByRequester map[core.DSID]uint64
}

// Statistic and parameter column names of the LLC control plane (Table 3).
const (
	ParamWayMask = "waymask"

	StatHitCnt   = "hit_cnt"
	StatMissCnt  = "miss_cnt"
	StatMissRate = "miss_rate" // 0.1% units, windowed
	StatCapacity = "capacity"  // blocks currently owned
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
	if cfg.BlockSize <= 0 || cfg.SizeBytes%(cfg.BlockSize*cfg.Ways) != 0 {
		panic(fmt.Sprintf("cache %s: size %d not divisible by ways*block", cfg.Name, cfg.SizeBytes))
	}
	if cfg.MSHRs == 0 {
		cfg.MSHRs = 64
	}
	if cfg.TriggerSlots == 0 {
		cfg.TriggerSlots = 64
	}
	sets := cfg.SizeBytes / (cfg.BlockSize * cfg.Ways)
	c := &Cache{
		cfg:       cfg,
		engine:    e,
		clock:     clock,
		ids:       ids,
		next:      next,
		sets:      sets,
		numBlocks: sets * cfg.Ways,
		lines:     make([][]line, sets),
		trees:     make([]plru, sets),
		reserved:  make([]uint64, sets),
		mshrs:     make(map[mshrKey]*mshrEntry),
		occupancy: make(map[core.DSID]uint64),

		WritebacksByOwner:     make(map[core.DSID]uint64),
		WritebacksByRequester: make(map[core.DSID]uint64),
	}
	for i := range c.lines {
		c.lines[i] = make([]line, cfg.Ways)
	}
	if cfg.Policy == PolicyLRU {
		c.lastUse = make([][]uint64, sets)
		for i := range c.lastUse {
			c.lastUse[i] = make([]uint64, cfg.Ways)
		}
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
		params := core.NewTable(
			core.Column{Name: ParamWayMask, Writable: true, Default: 1<<uint(cfg.Ways) - 1},
		)
		stats := core.NewTable(
			core.Column{Name: StatHitCnt},
			core.Column{Name: StatMissCnt},
			core.Column{Name: StatMissRate, Window: core.WindowMean, Scale: 1000},
			core.Column{Name: StatCapacity},
		)
		c.plane = core.NewPlane(e, "CACHE_CP", core.PlaneTypeCache, params, stats, cfg.TriggerSlots)
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
func (c *Cache) Occupancy(ds core.DSID) uint64 { return c.occupancy[ds] }

// OccupancyBytes returns ds's occupancy in bytes (Figure 7's y-axis).
func (c *Cache) OccupancyBytes(ds core.DSID) uint64 {
	return c.occupancy[ds] * uint64(c.cfg.BlockSize)
}

func (c *Cache) blockAddr(addr uint64) uint64 { return addr &^ uint64(c.cfg.BlockSize-1) }
func (c *Cache) setIndex(block uint64) uint64 {
	return block / uint64(c.cfg.BlockSize) % uint64(c.sets)
}
func (c *Cache) tagOf(block uint64) uint64 {
	return block / uint64(c.cfg.BlockSize) / uint64(c.sets)
}

// Request accepts a packet. Lookup completes HitLatency cycles later;
// the control-plane parameter lookup overlaps the tag pipeline and adds
// no cycles (verified by exp TestLLCLatencyZeroOverhead). The delay is
// scheduled through the packet's embedded event slot, so the whole
// Request→lookup chain is allocation-free in steady state
// (TestRequestChainZeroAlloc).
func (c *Cache) Request(p *core.Packet) {
	c.rec.Enter(c.hop, p)
	p.ScheduleCall(c.clock, c.cfg.HitLatency, c.lookupFn)
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
	tag := c.tagOf(block)
	set := c.lines[si]

	// An LLC hit requires both the address tag and the owner DS-id to
	// match: LDoms have overlapping guest-physical spaces (paper §4.2
	// footnote 4).
	for w := range set {
		ln := &set[w]
		if ln.valid && ln.tag == tag && ln.owner == p.DSID {
			c.hit(p, si, w, retry)
			return
		}
	}
	c.miss(p, block, si, tag, retry)
}

func (c *Cache) hit(p *core.Packet, si uint64, w int, retry bool) {
	if !retry {
		c.Hits++
		c.account(p.DSID, true)
	}
	c.touch(si, w)
	if p.Kind.IsWrite() {
		c.lines[si][w].dirty = true
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

func (c *Cache) miss(p *core.Packet, block, si, tag uint64, retry bool) {
	if !retry {
		// Counted on the first attempt only: a stalled access that
		// re-enters via the retry path must not inflate miss_rate
		// (the Fig. 9 trigger condition) a second time.
		c.Misses++
		c.account(p.DSID, false)
	}

	key := mshrKey{block: block, ds: p.DSID}
	if e, ok := c.mshrs[key]; ok {
		e.waiters = append(e.waiters, p)
		return
	}
	if len(c.mshrs) >= c.cfg.MSHRs {
		c.stall(p, retry)
		return
	}
	c.allocateMiss(p, key, si, tag, retry)
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

func (c *Cache) allocateMiss(p *core.Packet, key mshrKey, si, tag uint64, retry bool) {
	w, ok := c.evict(si, p.DSID)
	if !ok {
		// Every allowed way has a fill in flight: structural stall
		// until one lands.
		c.stall(p, retry)
		return
	}
	set := c.lines[si]
	victim := set[w]
	set[w] = line{}
	c.reserved[si] |= 1 << uint(w) // hold the way until the fill lands

	e := c.getEntry()
	e.waiters = append(e.waiters, p)
	e.way, e.set, e.victim = w, si, victim
	c.mshrs[key] = e

	if victim.valid && victim.dirty {
		c.WritebacksByOwner[victim.owner]++
		c.WritebacksByRequester[p.DSID]++
		c.writeback(si, victim)
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
	e.way, e.set, e.victim, e.dead = 0, 0, line{}, false
	c.entryPool = append(c.entryPool, e)
}

// evict picks a victim way for ds, constrained by its way mask when a
// control plane is present and excluding ways with in-flight fills.
// ok is false when every allowed way is reserved.
func (c *Cache) evict(si uint64, ds core.DSID) (w int, ok bool) {
	mask := uint64(1)<<uint(c.cfg.Ways) - 1
	if c.plane != nil {
		m := c.plane.Param(ds, ParamWayMask) & mask
		if m != 0 {
			mask = m
		}
	}
	mask &^= c.reserved[si]
	if mask == 0 {
		return 0, false
	}
	// Prefer an invalid allowed way.
	for w := 0; w < c.cfg.Ways; w++ {
		if mask&(1<<uint(w)) != 0 && !c.lines[si][w].valid {
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
			if best == -1 || c.lastUse[si][w] < bestUse {
				best, bestUse = w, c.lastUse[si][w]
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
		c.lastUse[si][w] = c.useTick
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

func (c *Cache) writeback(si uint64, victim line) {
	c.Writebacks++
	addr := (victim.tag*uint64(c.sets) + si) * uint64(c.cfg.BlockSize)
	// The writeback is tagged with the block's owner DS-id, not the
	// requester that forced the eviction (paper §4.1).
	wb := core.NewPacket(c.ids, core.KindWriteback, victim.owner, addr, uint32(c.cfg.BlockSize), c.engine.Now())
	c.rec.Begin(c.hop, wb)
	c.next.Request(wb)
}

func (c *Cache) fill(key mshrKey, fromWriteback bool) {
	e, ok := c.mshrs[key]
	if !ok {
		return
	}
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
			delete(c.mshrs, key)
			c.reserved[e.set] &^= 1 << uint(e.way)
			if e.victim.valid {
				c.decOccupancy(e.victim.owner)
			}
			c.putEntry(e)
			c.retryStalled()
			return
		}
		e.dead = false
		c.issueFill(key)
		return
	}
	delete(c.mshrs, key)
	c.Fills++

	dirty := fromWriteback
	for _, w := range e.waiters {
		if w.Kind.IsWrite() {
			dirty = true
		}
	}
	si := e.set
	c.reserved[si] &^= 1 << uint(e.way)
	c.lines[si][e.way] = line{tag: c.tagOf(key.block), valid: true, dirty: dirty, owner: key.ds}
	c.touch(si, e.way)

	// Occupancy accounting: the victim's owner loses a block, the
	// requester gains one (paper footnote 6).
	if e.victim.valid {
		c.decOccupancy(e.victim.owner)
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
	c.occupancy[ds]++
	if c.plane != nil {
		c.plane.SetStat(ds, StatCapacity, c.occupancy[ds])
	}
}

func (c *Cache) decOccupancy(ds core.DSID) {
	if c.occupancy[ds] > 0 {
		c.occupancy[ds]--
	}
	if c.plane != nil {
		c.plane.SetStat(ds, StatCapacity, c.occupancy[ds])
	}
}

func (c *Cache) account(ds core.DSID, hit bool) {
	if c.plane == nil {
		return
	}
	if hit {
		c.plane.AddStat(ds, StatHitCnt, 1)
		c.plane.Observe(ds, StatMissRate, 0, 1)
	} else {
		c.plane.AddStat(ds, StatMissCnt, 1)
		c.plane.Observe(ds, StatMissRate, 1, 1)
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
	var n uint64
	for si := range c.lines {
		for w := range c.lines[si] {
			ln := &c.lines[si][w]
			if !ln.valid || ln.owner != ds {
				continue
			}
			if ln.dirty {
				c.WritebacksByOwner[ds]++
				c.WritebacksByRequester[ds]++
				c.writeback(uint64(si), *ln)
			}
			*ln = line{}
			n++
			c.decOccupancy(ds)
		}
	}

	now := c.engine.Now()

	// Kill pending fills for ds. Keys are collected and sorted so the
	// completion order of their waiters is deterministic.
	var keys []mshrKey
	//pardlint:ignore determinism keys are collected and sorted before use
	for k := range c.mshrs {
		if k.ds == ds {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].block < keys[j].block })
	for _, k := range keys {
		e := c.mshrs[k]
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
	return c.plane.Stat(ds, StatMissRate)
}
