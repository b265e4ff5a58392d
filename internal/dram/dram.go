// Package dram models a DDR3 memory controller with PARD's memory
// control plane (paper §4.2, Figure 5): per-DS-id address mapping (LDom
// physical → DRAM physical), two-level priority queueing in front of an
// FR-FCFS scheduler, per-DS-id row-buffer ids (an extra row buffer per
// bank for high-priority requests, in the style of NEC's virtual-channel
// memory), and the usual parameter/statistics/trigger tables.
package dram

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/metric"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Config describes the controller and the attached DDR3 devices.
// Defaults (via DefaultConfig) follow Table 2: DDR3-1600 11-11-11,
// 1 channel, 2 ranks, 8 banks/rank, 1 KB row buffer, BL8.
type Config struct {
	Name string

	TCK sim.Tick // memory clock period in ticks

	// Timing in memory cycles.
	TRCD  uint64 // activate -> column command
	TCL   uint64 // column command -> data
	TRP   uint64 // precharge
	TRAS  uint64 // activate -> precharge minimum
	TRRD  uint64 // activate -> activate, different banks
	Burst uint64 // data burst length in cycles (BL8 = 4 on DDR)

	Ranks        int
	BanksPerRank int
	RowBytes     int

	// Priorities is the number of priority queues (the paper's design
	// supports two). With ControlPlane false a single FR-FCFS queue is
	// used regardless — the paper's baseline memory controller.
	Priorities   int
	ControlPlane bool
	TriggerSlots int

	// RowBuffers per bank: 1 standard + extras selectable per DS-id via
	// the rowbuf parameter.
	RowBuffers int

	// CompressionEngine enables the paper's §8 functionality extension:
	// an IBM-MXT-style engine at the controller that compresses memory
	// traffic for designated DS-id sets (parameter "compress"). A
	// compressed access moves half the data over the channel (Burst/2
	// cycles) but pays CompressLatency extra cycles in the engine.
	CompressionEngine bool
	CompressLatency   uint64 // engine cycles; 0 means 8

	SampleInterval sim.Tick // 0 means core.DefaultSampleInterval
}

// DefaultConfig returns Table 2's memory system. Its SampleInterval
// is set, not left zero, because pard.Config passes its own window down
// only to a zero field: the memory plane keeps 100 µs under every server
// config.
func DefaultConfig() Config {
	return Config{
		Name: "mem",
		TCK:  1250, // 1.25 ns
		TRCD: 11, TCL: 11, TRP: 11, TRAS: 28, TRRD: 5,
		Burst:          4,
		Ranks:          2,
		BanksPerRank:   8,
		RowBytes:       1024,
		Priorities:     2,
		ControlPlane:   true,
		RowBuffers:     2,
		SampleInterval: 100 * sim.Microsecond,
	}
}

// Parameter and statistics column names (Table 3).
const (
	ParamAddrBase  = "addr_base"  // LDom-phys -> DRAM-phys offset in bytes
	ParamPriority  = "priority"   // larger = higher priority
	ParamRowBuf    = "rowbuf"     // row-buffer id used by this DS-id
	ParamCompress  = "compress"   // nonzero: route through the compression engine
	ParamAddrLimit = "addr_limit" // LDom-physical size; accesses beyond fault (0 = unlimited)
	ParamLatTarget = "lat_target" // EDF deadline target in ns (0 = best effort)

	StatServCnt    = "serv_cnt"   // requests served
	StatAvgQLat    = "avg_qlat"   // windowed mean queueing delay, 0.1-cycle units
	StatBandwidth  = "bandwidth"  // windowed bandwidth, MB/s
	StatViolations = "violations" // out-of-bounds accesses faulted
)

// Column indices of the memory control plane's tables. compress is the
// last parameter column: a controller without the compression engine
// builds its table from the others.
const (
	colAddrBase = iota
	colPriority
	colRowBuf
	colAddrLimit
	colLatTarget
	colCompress
)

const (
	colServCnt = iota
	colAvgQLat
	colBandwidth
	colViolations
)

// Scheduling algorithms installable on the memory plane (the .pard
// `schedule mem <algo>` catalogue). Each is a rank function over the
// controller's one PIFO.
const (
	SchedFRFCFS = "frfcfs" // priority level, then row hit first, then oldest (default)
	SchedStrict = "strict" // strict priority by the priority parameter, FIFO within a level
	SchedEDF    = "edf"    // earliest deadline first over per-DS-id lat_target
)

// defaultDeadline is the EDF deadline granted to best-effort traffic
// (lat_target 0): far enough out that any tenant with a real target
// sorts ahead, near enough that best-effort requests still order FCFS
// among themselves.
const defaultDeadline = 1 * sim.Millisecond

type request struct {
	pkt        *core.Packet
	bank       int
	row        uint64
	rbuf       int
	lvl        int // priority level assigned at enqueue (0 = highest)
	compressed bool
	enq        sim.Tick
}

type bank struct {
	rows     []int64 // open row per row buffer; -1 closed
	busyTill sim.Tick
	lastAct  sim.Tick
}

// Controller is the DDR3 memory controller.
type Controller struct {
	cfg    Config
	engine *sim.Engine
	ids    *core.IDSource

	levels  int        // priority levels (level 0 = highest)
	reqPool []*request // recycled request structs (hot path stays allocation-free)
	banks   []bank

	// PIFO scheduling plane: pending requests live in one PIFO and the
	// installed algorithm's rank function decides issue order (rankFn
	// is prebound; rankNow carries the decision time so the closure
	// allocates once, at construction).
	sched   string
	pifo    core.PIFO[*request]
	rankFn  func(*request) (uint64, bool)
	rankNow sim.Tick
	// bursts holds the scheduled data-burst windows on the shared
	// channel. Kept small by pruning: at most one outstanding burst
	// per bank.
	bursts []burstWin

	plane *core.Plane

	// slot polls the scheduler once per memory cycle while requests are
	// pending. wake collects, during a poll's scan, the earliest busyTill
	// of the queued requests' banks (0 once one of them is free): the
	// sleep bound of a poll that issues nothing.
	slot *sim.Ticker
	wake sim.Tick

	// Prebound burst-completion callback: one closure at construction
	// instead of one per request.
	completeFn func(*core.Packet)

	// Flight-recorder hop (nil rec disables; every rec call is nil-safe).
	rec *trace.Recorder
	hop int

	// Measurement.
	QueueDelay   []*metric.Histogram // per priority level, in memory cycles
	Served       uint64
	Violations   uint64 // out-of-bounds accesses faulted
	Compressed   uint64 // requests routed through the compression engine
	RowHits      uint64
	RowConflicts uint64
	HighWater    int
}

// burstWin is one reserved data-burst window [End-Width, End].
type burstWin struct {
	End   sim.Tick
	Width sim.Tick
}

// New builds a controller.
func New(e *sim.Engine, ids *core.IDSource, cfg Config) *Controller {
	if cfg.Priorities <= 0 {
		cfg.Priorities = 1
	}
	if cfg.RowBuffers <= 0 {
		cfg.RowBuffers = 1
	}
	if cfg.TriggerSlots == 0 {
		cfg.TriggerSlots = 64
	}
	if cfg.CompressLatency == 0 {
		cfg.CompressLatency = 8
	}
	levels := cfg.Priorities
	if !cfg.ControlPlane {
		levels = 1
	}
	c := &Controller{
		cfg:    cfg,
		engine: e,
		ids:    ids,
		levels: levels,
		banks:  make([]bank, cfg.Ranks*cfg.BanksPerRank),
	}
	//pardlint:hotpath prebound burst-completion callback
	c.completeFn = func(p *core.Packet) {
		c.rec.Finish(c.hop, p)
		p.Complete(c.engine.Now())
	}
	c.slot = sim.NewTicker(e, cfg.TCK, c)
	c.sched = SchedFRFCFS
	c.rankFn = c.rank
	for i := range c.banks {
		rows := make([]int64, cfg.RowBuffers)
		for j := range rows {
			rows[j] = -1
		}
		c.banks[i] = bank{rows: rows}
	}
	c.QueueDelay = make([]*metric.Histogram, levels)
	for i := range c.QueueDelay {
		c.QueueDelay[i] = metric.NewHistogram()
	}
	if cfg.ControlPlane {
		params := [...]core.Column{
			colAddrBase:  {Name: ParamAddrBase, Writable: true},
			colPriority:  {Name: ParamPriority, Writable: true},
			colRowBuf:    {Name: ParamRowBuf, Writable: true},
			colAddrLimit: {Name: ParamAddrLimit, Writable: true},
			colLatTarget: {Name: ParamLatTarget, Writable: true},
			colCompress:  {Name: ParamCompress, Writable: true},
		}
		n := len(params)
		if !cfg.CompressionEngine {
			n = colCompress
		}
		stats := [...]core.Column{
			colServCnt:    {Name: StatServCnt},
			colAvgQLat:    {Name: StatAvgQLat, Window: core.WindowMean, Scale: 10},
			colBandwidth:  {Name: StatBandwidth, Window: core.WindowMBps},
			colViolations: {Name: StatViolations},
		}
		c.plane = core.NewPlane(e, "MEM_CP", core.PlaneTypeMemory,
			core.NewTable(params[:n]...), core.NewTable(stats[:]...), cfg.TriggerSlots)
		c.plane.SetSchedulerHook([]string{SchedFRFCFS, SchedStrict, SchedEDF},
			func(algo string) { c.sched = algo })
		c.plane.Sample(cfg.SampleInterval)
	}
	return c
}

// Plane returns the memory control plane (nil in baseline mode).
func (c *Controller) Plane() *core.Plane { return c.plane }

// AttachRecorder wires the ICN flight recorder into this controller's
// request path under the configured name and returns the hop id. Call
// before traffic.
func (c *Controller) AttachRecorder(r *trace.Recorder) int {
	c.rec = r
	c.hop = r.RegisterHop(c.cfg.Name)
	return c.hop
}

// Config returns the configuration.
func (c *Controller) Config() Config { return c.cfg }

func (c *Controller) totalBanks() int { return c.cfg.Ranks * c.cfg.BanksPerRank }

// translate applies the per-DS-id address map and decomposes the DRAM
// address into (bank, row). Rows interleave across banks so sequential
// streams spread bank load.
func (c *Controller) translate(ds core.DSID, addr uint64) (bankIdx int, row uint64) {
	if c.plane != nil {
		addr += c.plane.ParamAt(ds, colAddrBase)
	}
	rowIdx := addr / uint64(c.cfg.RowBytes)
	return int(rowIdx % uint64(c.totalBanks())), rowIdx / uint64(c.totalBanks())
}

// priorityOf maps a DS-id to a priority level (0 = highest).
func (c *Controller) priorityOf(ds core.DSID) int {
	if c.plane == nil {
		return 0
	}
	p := int(c.plane.ParamAt(ds, colPriority))
	top := c.levels - 1
	if p > top {
		p = top
	}
	return top - p // parameter: larger = higher priority
}

func (c *Controller) rowBufOf(ds core.DSID) int {
	if c.plane == nil {
		return 0
	}
	rb := int(c.plane.ParamAt(ds, colRowBuf))
	if rb >= c.cfg.RowBuffers {
		rb = c.cfg.RowBuffers - 1
	}
	return rb
}

// compressedOf reports whether ds's traffic routes through the
// compression engine.
func (c *Controller) compressedOf(ds core.DSID) bool {
	if !c.cfg.CompressionEngine || c.plane == nil {
		return false
	}
	return c.plane.ParamAt(ds, colCompress) != 0
}

// burstCyclesOf returns the channel occupancy of r's data burst.
func (c *Controller) burstCyclesOf(r *request) uint64 {
	if r.compressed {
		half := c.cfg.Burst / 2
		if half == 0 {
			half = 1
		}
		return half
	}
	return c.cfg.Burst
}

// Request enqueues a memory access (paper Figure 5 steps 1–3). When the
// LDom has an address limit programmed, accesses beyond it fault: the
// control plane counts a violation, evaluates security triggers
// immediately, and the request completes without touching DRAM — the
// containment half of the paper's "security policy" open problem.
func (c *Controller) Request(p *core.Packet) {
	c.rec.Enter(c.hop, p)
	if c.plane != nil {
		if limit := c.plane.ParamAt(p.DSID, colAddrLimit); limit > 0 && p.Addr >= limit {
			c.Violations++
			c.plane.AddStatAt(p.DSID, colViolations, 1)
			c.plane.Evaluate(p.DSID)
			c.rec.Finish(c.hop, p)
			p.Complete(c.engine.Now())
			return
		}
	}
	bankIdx, row := c.translate(p.DSID, p.Addr)
	r := c.getReq()
	r.pkt, r.bank, r.row = p, bankIdx, row
	r.rbuf = c.rowBufOf(p.DSID)
	r.compressed = c.compressedOf(p.DSID)
	r.enq = c.engine.Now()
	r.lvl = c.priorityOf(p.DSID)
	// Every algorithm re-ranks at pop time (PopWhere); the stored rank
	// is unused, so arrival order (seq) is the only persistent key.
	c.pifo.Push(r, 0)
	if n := c.pifo.Len(); n > c.HighWater {
		c.HighWater = n
	}
	if c.slot.Armed() {
		c.slot.Wake(c.banks[bankIdx].busyTill)
	} else {
		c.slot.Arm()
	}
}

// getReq pops a recycled request struct or allocates one.
func (c *Controller) getReq() *request {
	if n := len(c.reqPool); n > 0 {
		r := c.reqPool[n-1]
		c.reqPool[n-1] = nil
		c.reqPool = c.reqPool[:n-1]
		return r
	}
	//pardlint:ignore hotalloc pool miss: amortized to zero once reqPool reaches steady-state depth
	return new(request)
}

// putReq recycles a serviced request struct.
func (c *Controller) putReq(r *request) {
	*r = request{}
	c.reqPool = append(c.reqPool, r)
}

// Poll runs the DRAM scheduler for one command slot: it issues the
// eligible request of minimum rank under the installed algorithm —
// under FR-FCFS, high-priority level first, row hit first, then oldest
// (paper Figure 5 step 4). It is the slot ticker's client and asks for
// the next cycle while requests remain.
//
// A slot that issues nothing sleeps the ticker until the earliest
// busyTill among the queued requests' banks. Until then every slot
// finds each queued request's bank busy, and such a slot reads only
// busyTill (it never reaches busConflicts or mutates anything), so the
// skipped slots are exactly the ones that would have done nothing.
// When one of those banks is free the bound is 0: a request blocked
// only by the data bus retries every cycle. Request lowers the bound to
// the arriving request's bank.
//
// Hot path: hotalloc reaches Poll from Engine.Step through the
// devirtualized sim.Poller call.
func (c *Controller) Poll() bool {
	now := c.engine.Now()
	c.wake = sim.Tick(math.MaxUint64)
	c.rankNow = now
	if r, ok := c.pifo.PopWhere(c.rankFn); ok {
		c.service(r, now)
	} else {
		c.slot.Sleep(c.wake)
	}
	return c.pifo.Len() > 0
}

// cyc converts DRAM command cycles to engine ticks. A method rather
// than a per-call closure: latencyOf and service run once per scheduler
// slot, where even a stack-spilled closure binding is measurable.
func (c *Controller) cyc(n uint64) sim.Tick { return sim.Tick(n) * c.cfg.TCK }

// latencyOf computes the access latency r would see if issued now,
// without mutating bank state.
func (c *Controller) latencyOf(r *request, now sim.Tick) sim.Tick {
	b := &c.banks[r.bank]
	burst := c.burstCyclesOf(r)
	switch {
	case b.rows[r.rbuf] == int64(r.row):
		return c.cyc(c.cfg.TCL + burst)
	case b.rows[r.rbuf] == -1:
		return c.cyc(c.cfg.TRCD + c.cfg.TCL + burst)
	default:
		start := now
		if min := b.lastAct + c.cyc(c.cfg.TRAS); min > start {
			start = min
		}
		return (start - now) + c.cyc(c.cfg.TRP+c.cfg.TRCD+c.cfg.TCL+burst)
	}
}

// busConflicts reports whether a data burst with window [end-width, end]
// would overlap an already-scheduled burst on the shared channel, and
// prunes windows that ended in the past.
func (c *Controller) busConflicts(end, width, now sim.Tick) bool {
	live := c.bursts[:0]
	conflict := false
	for _, w := range c.bursts {
		if w.End <= now {
			continue // burst fully drained; forget it
		}
		//pardlint:ignore hotalloc live aliases c.bursts[:0], so this filtered append never outgrows the existing backing array
		live = append(live, w)
		// [end-width, end] and [w.End-w.Width, w.End] overlap?
		if end > w.End-w.Width && w.End > end-width {
			conflict = true
		}
	}
	c.bursts = live
	return conflict
}

// rank is the transient PIFO rank of r at decision time c.rankNow, plus
// its eligibility: r's bank must be free and its data burst must not
// collide with another on the shared channel. Only the burst occupies
// the channel; activate/precharge time is bank-private, so banks
// overlap their accesses and a short access may return before an
// earlier long one. The PIFO's seq tie-break supplies arrival order.
//
//pardlint:hotpath prebound PIFO rank function (rankFn)
func (c *Controller) rank(r *request) (uint64, bool) {
	now := c.rankNow
	b := &c.banks[r.bank]
	if b.busyTill > now {
		c.wake = min(c.wake, b.busyTill)
		return 0, false
	}
	c.wake = 0
	lat := c.latencyOf(r, now)
	width := sim.Tick(c.burstCyclesOf(r)) * c.cfg.TCK
	if c.busConflicts(now+lat, width, now) {
		return 0, false
	}
	switch c.sched {
	case SchedStrict:
		// Larger priority parameter = higher priority = smaller rank;
		// FIFO within a level via seq.
		if c.plane == nil {
			return 0, true
		}
		return math.MaxUint64 - c.plane.ParamAt(r.pkt.DSID, colPriority), true
	case SchedEDF:
		// Deadline = arrival + lat_target. Best-effort tenants
		// (lat_target 0) take the distant default deadline, ordering
		// FCFS among themselves behind every real target.
		dl := defaultDeadline
		if c.plane != nil {
			if ns := c.plane.ParamAt(r.pkt.DSID, colLatTarget); ns > 0 {
				dl = sim.Tick(ns) * sim.Nanosecond
			}
		}
		return uint64(r.enq + dl), true
	default: // SchedFRFCFS
		// Lexicographic (priority level, row-miss): two rank values per
		// level, hit below miss, arrival (seq) breaking ties — the first
		// ready row hit of the highest non-empty level, else its oldest
		// eligible request.
		rank := uint64(r.lvl) * 2
		if b.rows[r.rbuf] != int64(r.row) {
			rank++
		}
		return rank, true
	}
}

// service issues the DRAM command sequence for r at time now.
func (c *Controller) service(r *request, now sim.Tick) {
	// The scheduler picked this request: its queue wait ends here; the
	// bank/channel occupancy that follows is service time.
	c.rec.Service(c.hop, r.pkt)
	b := &c.banks[r.bank]

	latency := c.latencyOf(r, now)
	switch {
	case b.rows[r.rbuf] == int64(r.row): // row hit
		c.RowHits++
	case b.rows[r.rbuf] == -1: // closed: activate
		b.lastAct = now
	default: // conflict: precharge (after tRAS) + activate
		c.RowConflicts++
		start := now
		if min := b.lastAct + c.cyc(c.cfg.TRAS); min > start {
			start = min
		}
		b.lastAct = start + c.cyc(c.cfg.TRP)
	}
	b.rows[r.rbuf] = int64(r.row)
	b.busyTill = now + latency
	c.bursts = append(c.bursts, burstWin{
		End:   now + latency,
		Width: sim.Tick(c.burstCyclesOf(r)) * c.cfg.TCK,
	})
	// The compression engine adds its pipeline latency outside the
	// bank/channel path.
	if r.compressed {
		latency += sim.Tick(c.cfg.CompressLatency) * c.cfg.TCK
		c.Compressed++
	}
	c.Served++

	// Queueing delay in memory cycles (Figure 11's metric).
	delay := uint64((now - r.enq) / c.cfg.TCK)
	c.QueueDelay[r.lvl].Observe(delay)

	if c.plane != nil {
		ds := r.pkt.DSID
		c.plane.ObserveAt(ds, colAvgQLat, delay, 1)
		c.plane.ObserveAt(ds, colBandwidth, uint64(r.pkt.Size), 0)
		c.plane.AddStatAt(ds, colServCnt, 1)
	}

	r.pkt.ScheduleCallAt(c.engine, now+latency, c.completeFn)
	c.putReq(r)
}

// BandwidthMBs reads ds's last-window bandwidth (for reports).
func (c *Controller) BandwidthMBs(ds core.DSID) uint64 {
	if c.plane == nil {
		return 0
	}
	return c.plane.StatAt(ds, colBandwidth)
}

func (c *Controller) String() string {
	return fmt.Sprintf("%s: served=%d rowhits=%d conflicts=%d highwater=%d",
		c.cfg.Name, c.Served, c.RowHits, c.RowConflicts, c.HighWater)
}
