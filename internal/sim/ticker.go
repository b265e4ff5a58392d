package sim

// Clocked tickers: the engine's mechanism for components that act at
// most once per cycle of their own clock (the DRAM command slot, the
// crossbar grant port).
//
// A ticker behaves exactly like the self-rescheduling event chain such
// a component used to run. Arm acts like At(NextEdge(now), poll), and a
// poll that returns true acts like pushing the next poll one period
// later, after the poll's own pushes. The difference is that the client
// may set a sleep bound: polls at edges below it are never queued or
// run. Each skipped poll still takes the place the chain's would have
// had in the (tick, push order) sequence: at the moment it would have
// run, the engine gives the ticker's next firing a fresh push-order
// number, after every event pushed so far and after any ticker that
// fired before it. The first poll that does run is therefore ordered
// against same-tick events exactly as the chain orders it.
//
// Skips are recorded lazily but never late. Before the engine runs
// anything (an event or a poll) it records every skipped poll whose
// place comes first, and Run and RunBefore (which the shard runtime
// also uses to advance idle shards) record those up to their boundary
// before returning, so that events pushed between runs order after
// them. Sleeping tickers with
// the same period and edge move as one block over any stretch with
// nothing else in it, so an idle engine fast-forwards them together
// rather than edge by edge.
//
// The client's duty is to sleep only through polls that provably do
// nothing but re-arm, and to lower the bound (Wake) on every input
// that could make such a poll act. See DESIGN.md §17.

// Poller is a ticker's client.
type Poller interface {
	// Poll runs one clock slot at the ticker's current edge and
	// reports whether the ticker should poll again one period later.
	Poll() bool
}

// Ticker drives a Poller on the clock edges of its period (multiples
// of the period, like Clock.NextEdge). Construct with NewTicker.
type Ticker struct {
	eng    *Engine
	period Tick
	p      Poller
	when   Tick   // edge of the next firing, run or skipped
	seq    uint64 // that firing's place among same-tick events
	sleep  Tick   // firings at edges below sleep are skipped
	armed  bool   // queued or inside Poll
}

// NewTicker returns an unarmed ticker polling p every period on e.
func NewTicker(e *Engine, period Tick, p Poller) *Ticker {
	if period == 0 {
		panic("sim: ticker period must be positive")
	}
	if p == nil {
		panic("sim: nil poller")
	}
	return &Ticker{eng: e, period: period, p: p}
}

// Armed reports whether a poll is queued or running.
func (t *Ticker) Armed() bool { return t.armed }

// Arm queues a poll at the first clock edge at or after now, with no
// sleep bound, exactly as At(NextEdge(now), poll) would. Arming an
// armed ticker, including from inside its own Poll, does nothing: the
// running poll's return value decides whether it polls again.
func (t *Ticker) Arm() {
	if t.armed {
		return
	}
	e := t.eng
	t.armed = true
	t.sleep = 0
	t.when = alignUp(e.now, t.period)
	e.seq++
	t.seq = e.seq
	e.insertTicker(t)
}

// Sleep sets the sleep bound: polls at edges below until are skipped.
// The first edge at or after until polls again.
func (t *Ticker) Sleep(until Tick) { t.sleep = until }

// Wake lowers the sleep bound to at, so the poll at the first edge at
// or after at runs. A bound already below at is kept.
func (t *Ticker) Wake(at Tick) {
	if at < t.sleep {
		t.sleep = at
	}
}

// lastSeq is a push-order value no event reaches: a limit at (t,
// lastSeq) comes after everything at tick t, one at (t, 0) before it.
const lastSeq = ^uint64(0)

// alignUp returns the first multiple of p at or after x (infTick when
// there is none).
func alignUp(x, p Tick) Tick {
	if r := x % p; r != 0 {
		if up := x - r + p; up > x {
			return up
		}
		return infTick
	}
	return x
}

// insertTicker queues t in (when, seq) order.
func (e *Engine) insertTicker(t *Ticker) {
	i := len(e.tick)
	for i > 0 {
		u := e.tick[i-1]
		if u.when < t.when || (u.when == t.when && u.seq < t.seq) {
			break
		}
		i--
	}
	e.tick = append(e.tick, nil)
	copy(e.tick[i+1:], e.tick[i:])
	e.tick[i] = t
}

// dormant reports whether every armed ticker sleeps with no bound, so
// that with an empty queue nothing will ever run. It holds with no
// ticker armed.
func (e *Engine) dormant() bool {
	for _, t := range e.tick {
		if t.sleep != infTick {
			return false
		}
	}
	return true
}

// fireTicker runs the poll of the earliest ticker and re-queues it one
// period later, behind the poll's own pushes, if the poll asks to.
func (e *Engine) fireTicker() {
	t := e.tick[0]
	n := copy(e.tick, e.tick[1:])
	e.tick[n] = nil
	e.tick = e.tick[:n]
	e.now = t.when
	e.run++
	if !t.p.Poll() {
		t.armed = false
		return
	}
	t.when += t.period
	e.seq++
	t.seq = e.seq
	e.insertTicker(t)
}

// skipTickers records the skipped polls of the leading block: the
// earliest ticker, which sleeps and comes before the competitor
// (cw, cs), plus every ticker right behind it with the same period and
// edge that also sleeps and comes first. The block skips edge after
// edge, keeping its internal order, until the first edge where a
// member wakes or where a fresh push order would no longer come first:
// at or after the competitor, or at or after the next queued ticker.
func (e *Engine) skipTickers(cw Tick, cs uint64) {
	lead := e.tick[0]
	p, w := lead.period, lead.when
	lim := cw
	k := 0
	for ; k < len(e.tick); k++ {
		t := e.tick[k]
		if t.period != p || t.when != w || t.sleep <= w || (w == cw && t.seq > cs) {
			break
		}
		if t.sleep < lim {
			lim = t.sleep
		}
	}
	if k < len(e.tick) && e.tick[k].when < lim {
		lim = e.tick[k].when
	}
	next := alignUp(lim, p)
	if next <= w {
		next = w + p
	}
	for _, t := range e.tick[:k] {
		t.when = next
		e.seq++
		t.seq = e.seq
	}
	// The block now sorts after every other ticker at or before next.
	j := k
	for j < len(e.tick) && e.tick[j].when <= next {
		j++
	}
	if j > k {
		rotate(e.tick[:j], k)
	}
}

// rotate moves s[:k] behind s[k:] in place.
func rotate(s []*Ticker, k int) {
	reverse(s[:k])
	reverse(s[k:])
	reverse(s)
}

func reverse(s []*Ticker) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}
