// Package sim provides the deterministic discrete-event simulation engine
// underlying the PARD intra-computer network model.
//
// Time is measured in Ticks (1 tick = 1 picosecond). Components schedule
// callbacks on a shared Engine; events with equal timestamps run in
// scheduling order, which makes every simulation fully deterministic.
package sim

import (
	"fmt"
)

// Tick is the simulation time unit: one picosecond.
type Tick uint64

// Common durations expressed in ticks.
const (
	Picosecond  Tick = 1
	Nanosecond  Tick = 1000
	Microsecond Tick = 1000 * 1000
	Millisecond Tick = 1000 * 1000 * 1000
	Second      Tick = 1000 * 1000 * 1000 * 1000
)

// String renders a tick count as a human-readable duration.
func (t Tick) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%d.%03ds", uint64(t/Second), uint64(t%Second/Millisecond))
	case t >= Millisecond:
		return fmt.Sprintf("%d.%03dms", uint64(t/Millisecond), uint64(t%Millisecond/Microsecond))
	case t >= Microsecond:
		return fmt.Sprintf("%d.%03dus", uint64(t/Microsecond), uint64(t%Microsecond/Nanosecond))
	case t >= Nanosecond:
		return fmt.Sprintf("%d.%03dns", uint64(t/Nanosecond), uint64(t%Nanosecond))
	default:
		return fmt.Sprintf("%dps", uint64(t))
	}
}

// Eventer is a scheduled callback, and the engine's only event kind:
// At and Schedule wrap their closure in one. A reusable Eventer, a
// pointer to a caller-owned struct (typically embedded in a pooled
// object), keeps a hot path from building a closure per event. See
// core.Packet.ScheduleCall.
type Eventer interface {
	RunEvent()
}

// funcEvent adapts a closure to Eventer. A func value is one pointer,
// so the interface holds it without allocating.
type funcEvent func()

func (f funcEvent) RunEvent() { f() }

// event is one queue entry.
type event struct {
	when Tick
	seq  uint64
	ev   Eventer
}

// before orders events by (time, scheduling order). The pair is unique
// per event — seq is a strictly increasing per-engine counter — so the
// order is total and the schedule fully determined.
func (a *event) before(b *event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// Engine is a discrete-event scheduler. The zero value is an empty
// engine at time zero, the same as NewEngine returns.
//
// The queue is a hand-specialized binary min-heap over []event rather
// than container/heap: the interface-based API boxes every Push/Pop
// through interface{} (one allocation per scheduled event) and calls
// Less/Swap through method tables. Inlining the sift operations makes
// steady-state scheduling allocation-free and roughly halves ns/event
// (see BenchmarkEngineThroughput and BENCH.json). DESIGN.md §16 records
// why this is the only queue.
type Engine struct {
	now Tick
	seq uint64
	q   binHeap
	run uint64 // events executed, polls included

	// tick holds the armed tickers (ticker.go), earliest firing first;
	// a firing ticker leaves it while its poll runs.
	tick []*Ticker
}

// NewEngine returns an engine at time zero with an empty event queue.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulation time.
func (e *Engine) Now() Tick { return e.now }

// Executed reports how many events have run so far, counting the
// ticker polls that ran and none that were skipped.
func (e *Engine) Executed() uint64 { return e.run }

// Pending reports how many events are queued. An armed ticker counts
// as the one poll event its self-rescheduling chain would keep queued.
func (e *Engine) Pending() int { return e.q.size() + len(e.tick) }

// Schedule queues fn to run delay ticks from now.
func (e *Engine) Schedule(delay Tick, fn func()) {
	e.At(e.now+delay, fn)
}

// At queues fn at an absolute time. Times in the past are clamped to now,
// preserving the no-time-travel invariant.
func (e *Engine) At(when Tick, fn func()) {
	if fn == nil {
		panic("sim: nil event function")
	}
	e.push(when, funcEvent(fn))
}

// ScheduleEventer queues ev.RunEvent delay ticks from now without
// allocating: ev is typically a pointer to a reusable struct.
func (e *Engine) ScheduleEventer(delay Tick, ev Eventer) {
	e.AtEventer(e.now+delay, ev)
}

// AtEventer queues ev.RunEvent at an absolute time, with the same
// clamping and ordering rules as At.
func (e *Engine) AtEventer(when Tick, ev Eventer) {
	if ev == nil {
		panic("sim: nil eventer")
	}
	e.push(when, ev)
}

// push clamps, assigns the entry's scheduling sequence and hands it to
// the queue.
func (e *Engine) push(when Tick, ev Eventer) {
	if when < e.now {
		when = e.now
	}
	e.seq++
	e.q.push(event{when: when, seq: e.seq, ev: ev})
}

// Step executes the single earliest event, advancing time to it.
// It reports whether an event was available. With tickers armed, the
// event may be a ticker poll; skipped polls do not count.
func (e *Engine) Step() bool { return e.next(infTick, lastSeq) }

// Run executes every event with timestamp <= until, then advances the
// clock to until. Events scheduled during the run are honored if they
// fall within the horizon.
func (e *Engine) Run(until Tick) { e.runTo(until, lastSeq) }

// RunBefore executes every event with timestamp strictly below until,
// then advances the clock to until. It is the half-open window variant
// of Run used by the shard runtime (shard.go): events exactly at a
// window boundary belong to the next window, so a cross-shard message
// stamped `when == boundary` is always injected before any event at
// that tick has run on the destination shard.
func (e *Engine) RunBefore(until Tick) { e.runTo(until, 0) }

// runTo executes everything before the limit position (until, ls) —
// ls is lastSeq for an inclusive limit, 0 for an exclusive one —
// records the skipped ticker polls before it, and advances the clock
// to until.
func (e *Engine) runTo(until Tick, ls uint64) {
	for e.next(until, ls) {
	}
	if e.now < until {
		e.now = until
	}
}

// next is the engine's one step, bounded by the limit position
// (lw, ls). It runs the first of the queue head and the earliest poll
// that is not skipped when that comes before the limit, after
// recording every skipped poll ahead of it, and reports true.
// Otherwise it records the skipped polls ahead of the limit and
// reports false. With no ticker armed it runs the queue head if that
// comes before the limit.
//
//pardlint:hotpath engine dispatch: every simulated event funnels through here
func (e *Engine) next(lw Tick, ls uint64) bool {
	if lw == infTick && e.q.size() == 0 && e.dormant() {
		return false
	}
	for {
		h := e.q.head()
		cw, cs, head := lw, ls, false
		if h != nil && (h.when < cw || (h.when == cw && h.seq < cs)) {
			cw, cs, head = h.when, h.seq, true
		}
		if len(e.tick) == 0 || e.tick[0].when > cw || (e.tick[0].when == cw && e.tick[0].seq > cs) {
			if !head {
				return false
			}
			e.runHead()
			return true
		}
		if t := e.tick[0]; t.when >= t.sleep {
			e.fireTicker()
			return true
		}
		e.skipTickers(cw, cs)
	}
}

// runHead pops and runs the queue's earliest event: the engine's one
// dispatch.
func (e *Engine) runHead() {
	ev := e.q.pop()
	e.now = ev.when
	e.run++
	ev.ev.RunEvent()
}

// NextEventTime returns the timestamp of the earliest queued event or
// armed ticker firing, run or skipped: the time of the poll event the
// ticker's self-rescheduling chain would have queued. The shard
// runtime therefore makes the same window decisions with tickers as
// with chains, and never runs past a poll that will run. ok is false
// when nothing is pending.
func (e *Engine) NextEventTime() (when Tick, ok bool) {
	if h := e.q.head(); h != nil {
		when, ok = h.when, true
	}
	if len(e.tick) != 0 && (!ok || e.tick[0].when < when) {
		return e.tick[0].when, true
	}
	return when, ok
}

// StepUntil executes events until cond returns true or the queue
// empties. It reports whether cond held when it stopped. Use it to wait
// for a specific completion in systems with self-rescheduling periodic
// events (statistics samplers), where Drain would never return.
func (e *Engine) StepUntil(cond func() bool) bool {
	for !cond() {
		if !e.Step() {
			return cond()
		}
	}
	return true
}

// Drain executes events until none is pending or limit events have run.
// A limit of 0 means no limit. It returns the number of events executed.
func (e *Engine) Drain(limit uint64) uint64 {
	var n uint64
	for limit == 0 || n < limit {
		if !e.Step() {
			break
		}
		n++
	}
	return n
}

// binHeap is the engine's queue: a binary min-heap ordered by
// event.before, with the sift loops inlined so steady-state push/pop
// never allocates (the backing array is amortized by reuse). The engine
// owns seq assignment and past-time clamping; the heap only orders and
// stores.
type binHeap struct {
	h []event
}

func (q *binHeap) size() int { return len(q.h) }

func (q *binHeap) head() *event {
	if len(q.h) == 0 {
		return nil
	}
	return &q.h[0]
}

// push appends the entry and sifts it to its heap position.
func (q *binHeap) push(ev event) {
	q.h = append(q.h, ev)
	h := q.h
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].before(&h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// pop removes and returns the earliest entry. The caller must know the
// queue is non-empty.
func (q *binHeap) pop() event {
	h := q.h
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // release ev for GC
	h = h[:n]
	q.h = h
	// Sift down.
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		min := l
		if r := l + 1; r < n && h[r].before(&h[l]) {
			min = r
		}
		if !h[min].before(&h[i]) {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return top
}
