package trace

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/core"
	"repro/internal/metric"
	"repro/internal/sim"
)

// The Probe (trace.go) counts packets at one observation point. The
// Recorder below is the ICN flight recorder: it follows sampled packets
// across every instrumented hop (cores, caches, crossbar, memory
// controller, I/O bridge and devices), splitting each hop's residency
// into queue wait and service time, and aggregating the splits into
// per-(hop, DS-id) latency histograms. It answers the question the
// control-plane counters cannot: where a given LDom's latency went.
//
// Contract with the instrumented components:
//
//   - Begin(hop, p): p was just issued by hop (a request source).
//   - Enter(hop, p): p arrived at hop; a span opens with service
//     provisionally starting now.
//   - Service(hop, p): hop started actively serving p (queue wait over).
//     Optional: without it the hop reports zero queue wait.
//   - Leave(hop, p): p departs hop toward another component.
//   - Finish(hop, p): hop completes p. MUST run before p.Complete: a
//     pooled packet is recycled the moment Complete returns, and the
//     recorder snapshots the packet's identity fields by value.
//
// Every method is safe on a nil *Recorder and on unsampled packets, so
// call sites are unconditional; the disabled path is a nil check and a
// mask test, allocation-free (TestRecorderNilZeroAlloc).

// MaxHopsPerPacket bounds the per-packet span array. A fixed array keeps
// PacketTrace a flat value type — snapshotting one is a plain copy, so a
// recycled pooled packet can never corrupt an archived trace.
const MaxHopsPerPacket = 8

// DefaultSpanCapacity is the size of the completed-trace ring. Older
// traces are overwritten first (flight-recorder semantics: recent
// history wins); histograms keep aggregating regardless.
const DefaultSpanCapacity = 16384

// HopSpan is one packet's residency at one hop.
type HopSpan struct {
	Hop     int32
	Enter   sim.Tick // arrival at the hop
	Service sim.Tick // queue wait ends, active service begins
	Done    sim.Tick // departure or completion
}

// QueueWait is the time spent waiting before service at this hop.
func (s HopSpan) QueueWait() sim.Tick { return s.Service - s.Enter }

// ServiceTime is the time spent being actively served at this hop.
func (s HopSpan) ServiceTime() sim.Tick { return s.Done - s.Service }

// PacketTrace is one sampled packet's life, decomposed into hop spans.
// It is a flat value type: archiving one is a value copy, immune to the
// packet pool recycling the *core.Packet it was captured from.
type PacketTrace struct {
	ID    uint64
	Kind  core.Kind
	DSID  core.DSID
	Addr  uint64
	Size  uint32
	Src   int32 // issuing hop (Begin); -1 when first seen mid-flight
	Issue sim.Tick
	End   sim.Tick
	NHops int
	// Truncated marks a packet that crossed more than MaxHopsPerPacket
	// hops; the overflow spans were dropped (and counted by the recorder).
	Truncated bool
	Hops      [MaxHopsPerPacket]HopSpan

	open bool // the last span has not been closed yet
}

// Spans returns the recorded hop spans in traversal order.
func (t *PacketTrace) Spans() []HopSpan { return t.Hops[:t.NHops] }

type hopHist struct {
	queue   *metric.Histogram
	service *metric.Histogram
}

// Recorder is the flight recorder. Construct with NewRecorder and attach
// to components before traffic; a nil *Recorder is the disabled state.
type Recorder struct {
	engine *sim.Engine
	mask   uint64 // sample when ID&mask == 0
	hops   []string

	active inflight
	pool   []*PacketTrace

	archive *metric.Ring[PacketTrace] // completed traces; built at the first Finish

	hists [][]*hopHist // [hop][DS-id]; nil until the pair's first closed span

	finished uint64 // traces finalized (including ones the ring evicted)
	dropped  uint64 // hop spans dropped by the MaxHopsPerPacket bound
}

// NewRecorder builds a recorder sampling one packet in sampleEvery by
// packet ID. sampleEvery is rounded up to a power of two, at most 2^63,
// so the sample test is a single mask; 0 or 1 samples everything.
func NewRecorder(e *sim.Engine, sampleEvery uint64) *Recorder {
	shift := uint(0)
	if sampleEvery > 1 {
		shift = min(uint(bits.Len64(sampleEvery-1)), 63)
	}
	return &Recorder{
		engine: e,
		mask:   1<<shift - 1,
		active: newInflight(shift),
	}
}

// inflight finds a sampled packet's in-flight trace by packet ID
// without hashing. Sampled IDs are multiples of the power-of-two
// sampling divisor and each source issues IDs in sequence, so the ID
// shifted right by log2(divisor), masked to the table size, is a home
// slot that spreads consecutive samples over consecutive slots.
// Collisions probe linearly. The table stays at most half full,
// doubling when an insert would pass that, and a delete shifts the rest
// of its probe run back instead of leaving a tombstone, so runs stay
// short under constant churn. Lookup is by ID alone, and nothing
// iterates over the table in an observable order.
type inflight struct {
	slots []inflightSlot // power-of-two length; a nil trace marks a free slot
	shift uint           // log2 of the sampling divisor
	n     int            // occupied slots
}

type inflightSlot struct {
	id uint64
	t  *PacketTrace
}

// inflightMin is the starting table size, large enough that a system's
// set-up traffic does not grow it.
const inflightMin = 64

func newInflight(shift uint) inflight {
	return inflight{slots: make([]inflightSlot, inflightMin), shift: shift}
}

func (f *inflight) home(id uint64) int { return int(id>>f.shift) & (len(f.slots) - 1) }

// get returns id's trace, or nil when id is not in flight.
func (f *inflight) get(id uint64) *PacketTrace {
	mask := len(f.slots) - 1
	for i := f.home(id); ; i = (i + 1) & mask {
		if s := &f.slots[i]; s.t == nil || s.id == id {
			return s.t
		}
	}
}

// put adds id, which must not be in flight already.
func (f *inflight) put(id uint64, t *PacketTrace) {
	if 2*(f.n+1) > len(f.slots) {
		old := f.slots
		//pardlint:ignore hotalloc doubling: at most log2(peak in-flight samples / 32) times per recorder
		f.slots = make([]inflightSlot, 2*len(old))
		for _, s := range old {
			if s.t != nil {
				f.place(s.id, s.t)
			}
		}
	}
	f.place(id, t)
	f.n++
}

// place stores (id, t) in the first free slot of id's probe run.
func (f *inflight) place(id uint64, t *PacketTrace) {
	mask := len(f.slots) - 1
	i := f.home(id)
	for f.slots[i].t != nil {
		i = (i + 1) & mask
	}
	f.slots[i] = inflightSlot{id: id, t: t}
}

// delete removes id if it is in flight. Each later entry of the probe
// run moves back into the hole unless its home lies cyclically after
// the hole, where the entry would no longer be found.
func (f *inflight) delete(id uint64) {
	mask := len(f.slots) - 1
	i := f.home(id)
	for f.slots[i].t != nil && f.slots[i].id != id {
		i = (i + 1) & mask
	}
	if f.slots[i].t == nil {
		return
	}
	for j := (i + 1) & mask; f.slots[j].t != nil; j = (j + 1) & mask {
		if (j-f.home(f.slots[j].id))&mask < (j-i)&mask {
			continue
		}
		f.slots[i] = f.slots[j]
		i = j
	}
	f.slots[i] = inflightSlot{}
	f.n--
}

// SampleEvery returns the effective (power-of-two) sampling divisor.
func (r *Recorder) SampleEvery() uint64 { return r.mask + 1 }

// RegisterHop names a hop and returns its id, reusing the id of an
// already-registered name.
func (r *Recorder) RegisterHop(name string) int {
	for i, h := range r.hops {
		if h == name {
			return i
		}
	}
	r.hops = append(r.hops, name)
	return len(r.hops) - 1
}

// HopName returns the name hop registered under.
func (r *Recorder) HopName(hop int) string {
	if hop < 0 || hop >= len(r.hops) {
		return fmt.Sprintf("hop%d", hop)
	}
	return r.hops[hop]
}

// Hops returns the registered hop names in id order.
func (r *Recorder) Hops() []string { return append([]string(nil), r.hops...) }

// Sampled reports whether p is in the sample.
func (r *Recorder) Sampled(p *core.Packet) bool {
	return r != nil && p.ID&r.mask == 0
}

// state returns p's in-flight trace, creating it on first sight.
func (r *Recorder) state(p *core.Packet) *PacketTrace {
	if t := r.active.get(p.ID); t != nil {
		return t
	}
	var t *PacketTrace
	if n := len(r.pool); n > 0 {
		t = r.pool[n-1]
		r.pool[n-1] = nil
		r.pool = r.pool[:n-1]
	} else {
		//pardlint:ignore hotalloc pool miss: amortized to zero once the trace pool reaches steady-state depth
		t = new(PacketTrace)
	}
	*t = PacketTrace{
		ID: p.ID, Kind: p.Kind, DSID: p.DSID, Addr: p.Addr, Size: p.Size,
		Src: -1, Issue: p.Issue,
	}
	r.active.put(p.ID, t)
	return t
}

// Begin marks hop as p's issuing source. Call where the packet is
// created, before the first Enter.
func (r *Recorder) Begin(hop int, p *core.Packet) {
	if r == nil || p.ID&r.mask != 0 {
		return
	}
	r.state(p).Src = int32(hop)
}

// Enter opens a hop span: p arrived at hop now. Service provisionally
// starts now too, so a hop that never calls Service reports pure
// service time.
func (r *Recorder) Enter(hop int, p *core.Packet) {
	if r == nil || p.ID&r.mask != 0 {
		return
	}
	t := r.state(p)
	now := r.engine.Now()
	if t.open {
		// Defensive: the previous hop never closed its span (an
		// uninstrumented exit path). Close it now so the invariant
		// "only the last span can be open" holds.
		s := &t.Hops[t.NHops-1]
		s.Done = now
		r.observe(s, t.DSID)
		t.open = false
	}
	if t.NHops >= MaxHopsPerPacket {
		t.Truncated = true
		r.dropped++
		return
	}
	t.Hops[t.NHops] = HopSpan{Hop: int32(hop), Enter: now, Service: now}
	t.NHops++
	t.open = true
}

// last returns p's trace and its open span iff that span belongs to hop.
func (r *Recorder) last(p *core.Packet, hop int) (*PacketTrace, *HopSpan) {
	t := r.active.get(p.ID)
	if t == nil {
		return nil, nil
	}
	if !t.open || t.NHops == 0 {
		return t, nil
	}
	s := &t.Hops[t.NHops-1]
	if s.Hop != int32(hop) {
		return t, nil
	}
	return t, s
}

// Service marks the end of p's queue wait at hop: active service starts
// now. Calling it again overwrites (the last dispatch wins, matching a
// retried access).
func (r *Recorder) Service(hop int, p *core.Packet) {
	if r == nil || p.ID&r.mask != 0 {
		return
	}
	if _, s := r.last(p, hop); s != nil {
		s.Service = r.engine.Now()
	}
}

// Leave closes p's span at hop: the packet departs toward another
// component. The span's queue/service split feeds the histograms.
func (r *Recorder) Leave(hop int, p *core.Packet) {
	if r == nil || p.ID&r.mask != 0 {
		return
	}
	t, s := r.last(p, hop)
	if s == nil {
		return
	}
	s.Done = r.engine.Now()
	r.observe(s, t.DSID)
	t.open = false
}

// Finish closes p's span at hop (if open) and finalizes the trace: the
// packet's life ends here. It MUST run before p.Complete so the capture
// happens while the packet's fields are still this request's.
func (r *Recorder) Finish(hop int, p *core.Packet) {
	if r == nil || p.ID&r.mask != 0 {
		return
	}
	t, s := r.last(p, hop)
	if t == nil {
		return
	}
	now := r.engine.Now()
	if s != nil {
		s.Done = now
		r.observe(s, t.DSID)
		t.open = false
	}
	t.End = now
	r.finished++
	// Built here rather than in NewRecorder, so booting a system does
	// not pay for the full-capacity archive up front.
	if r.archive == nil {
		r.archive = metric.NewRing[PacketTrace](DefaultSpanCapacity)
	}
	// Archive by value: the active struct goes back to the pool and the
	// packet may be recycled, but the ring entry is a copy.
	*r.archive.Next() = *t
	r.active.delete(p.ID)
	r.pool = append(r.pool, t)
}

func (r *Recorder) observe(s *HopSpan, ds core.DSID) {
	if n := int(s.Hop) + 1; n > len(r.hists) {
		//pardlint:ignore hotalloc first closed span at a higher hop id: bounded by the registered hops
		r.hists = append(r.hists, make([][]*hopHist, n-len(r.hists))...)
	}
	h := core.At(r.hists[s.Hop], ds)
	if h == nil {
		//pardlint:ignore hotalloc first sight of a (hop, DS-id) pair: bounded by topology times LDom count
		h = &hopHist{queue: metric.NewHistogram(), service: metric.NewHistogram()}
		r.hists[s.Hop] = core.GrowTo(r.hists[s.Hop], ds)
		r.hists[s.Hop][ds] = h
	}
	h.queue.Observe(uint64(s.Service - s.Enter))
	h.service.Observe(uint64(s.Done - s.Service))
}

// Finished returns the number of finalized traces.
func (r *Recorder) Finished() uint64 {
	if r == nil {
		return 0
	}
	return r.finished
}

// DroppedSpans returns hop spans dropped by the per-packet bound.
func (r *Recorder) DroppedSpans() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// ActiveCount returns in-flight sampled packets (for tests).
func (r *Recorder) ActiveCount() int {
	if r == nil {
		return 0
	}
	return r.active.n
}

// Traces returns the archived completed traces, oldest first.
func (r *Recorder) Traces() []PacketTrace {
	if r == nil || r.archive == nil {
		return nil
	}
	return r.archive.AppendTo(make([]PacketTrace, 0, r.archive.Len()))
}

// SpanCount returns the number of closed spans observed for (hop, ds).
func (r *Recorder) SpanCount(hop int, ds core.DSID) uint64 {
	if r == nil {
		return 0
	}
	if h := r.hist(hop, ds); h != nil {
		return h.queue.Count()
	}
	return 0
}

// Percentile returns the q-quantile of (hop, ds)'s service-time (service
// true) or queue-wait (service false) distribution, in ticks. The PRM's
// lat_{p50,p99}_{queue,service} statistics files read through here.
func (r *Recorder) Percentile(hop int, ds core.DSID, service bool, q float64) uint64 {
	if r == nil {
		return 0
	}
	h := r.hist(hop, ds)
	if h == nil {
		return 0
	}
	if service {
		return h.service.Percentile(q)
	}
	return h.queue.Percentile(q)
}

// hist returns (hop, ds)'s histogram pair, or nil before its first span.
func (r *Recorder) hist(hop int, ds core.DSID) *hopHist {
	if hop < 0 || hop >= len(r.hists) {
		return nil
	}
	return core.At(r.hists[hop], ds)
}

// Reset drops accumulated traces and histograms (warm-up/measure splits).
// In-flight packets keep recording.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.archive = nil
	r.hists = nil
	r.finished = 0
	r.dropped = 0
}

// BreakdownTable renders the per-(hop, DS-id) latency decomposition —
// the console `trace` command's output — hop-major, then by DS-id.
func (r *Recorder) BreakdownTable() string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "flight recorder: sampling 1-in-%d, %d packets finished, %d in flight, %d spans dropped\n",
		r.SampleEvery(), r.finished, r.active.n, r.dropped)
	fmt.Fprintf(&b, "  %-10s %-6s %8s %12s %12s %12s %12s\n",
		"hop", "ds", "spans", "queue-p50", "queue-p99", "svc-p50", "svc-p99")
	for hop, row := range r.hists {
		for ds, h := range row {
			if h == nil {
				continue
			}
			fmt.Fprintf(&b, "  %-10s %-6v %8d %12s %12s %12s %12s\n",
				r.HopName(hop), core.DSID(ds), h.queue.Count(),
				fmtTicks(h.queue.Percentile(0.50)), fmtTicks(h.queue.Percentile(0.99)),
				fmtTicks(h.service.Percentile(0.50)), fmtTicks(h.service.Percentile(0.99)))
		}
	}
	return b.String()
}

// fmtTicks renders a tick count (1 tick = 1 ps) as nanoseconds.
func fmtTicks(v uint64) string {
	return fmt.Sprintf("%.1fns", float64(v)/1000)
}
