package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// The ticker's contract is that it reproduces a self-rescheduling
// event chain exactly, minus the polls its client sleeps through. These
// tests drive toy clocked clients both ways, under a random side
// workload whose events land on the clients' edges, and require the
// same executed sequence and the same client state.

// toyJob is one unit of work a toy client issues once ready.
type toyJob struct {
	id     int
	arrive Tick // when it was submitted
	ready  Tick // the client may issue it at edges at or after ready
}

// toyWorld is one simulation: an engine, clocked clients and a side
// workload, all logging into one executed sequence. Decisions draw
// from rng only in logged actions (side events and polls that issue),
// so a chain run and a ticker run stay in lockstep as long as the
// engine orders them identically.
type toyWorld struct {
	t       *testing.T
	e       *Engine
	ticker  bool
	rng     *rand.Rand // drives the simulated behaviour
	bounds  *rand.Rand // ticker runs only: how far below honest a bound sits
	log     []string
	clients []*toyClient
	nextID  int
	budget  int // side events still allowed to spawn children
}

// toyClient issues at most one ready job per clock edge, FIFO.
type toyClient struct {
	w      *toyWorld
	id     int
	period Tick
	jobs   []toyJob
	issued int

	// Chain mode: the self-rescheduling poll event.
	pumping bool
	pollFn  func()
	// Ticker mode.
	tk       *Ticker
	lastPoll Tick // edge of the last poll that ran
}

func newToyWorld(t *testing.T, ticker bool, seed int64, periods ...Tick) *toyWorld {
	w := &toyWorld{
		t:      t,
		e:      NewEngine(),
		ticker: ticker,
		rng:    rand.New(rand.NewSource(seed)),
		bounds: rand.New(rand.NewSource(seed * 7919)),
		budget: 3000,
	}
	for i, p := range periods {
		c := &toyClient{w: w, id: i, period: p}
		if ticker {
			c.tk = NewTicker(w.e, p, c)
		} else {
			c.pollFn = func() {
				c.pumping = false
				if c.Poll() {
					c.pumping = true
					w.e.At(w.e.Now()+c.period, c.pollFn)
				}
			}
		}
		w.clients = append(w.clients, c)
	}
	return w
}

func (w *toyWorld) logf(format string, args ...any) {
	w.log = append(w.log, fmt.Sprintf("%d ", w.e.Now())+fmt.Sprintf(format, args...))
}

// delay draws a delay aimed at the clients' edges: zero, exactly one
// period, under a period, or several periods (on or off the edge).
func (w *toyWorld) delay() Tick {
	p := w.clients[w.rng.Intn(len(w.clients))].period
	switch w.rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return p
	case 2:
		return Tick(w.rng.Int63n(int64(p)))
	case 3:
		return p * Tick(2+w.rng.Intn(20))
	case 4:
		return p*Tick(2+w.rng.Intn(20)) + Tick(w.rng.Int63n(int64(p)))
	default:
		return Tick(w.rng.Int63n(int64(60 * p)))
	}
}

// side pushes a side event d from now.
func (w *toyWorld) side(d Tick) {
	w.nextID++
	id := w.nextID
	w.e.Schedule(d, func() { w.runSide(id) })
}

func (w *toyWorld) runSide(id int) {
	w.logf("side %d", id)
	if w.budget <= 0 {
		return
	}
	w.budget--
	for n := w.rng.Intn(3); n > 0; n-- {
		w.side(w.delay())
	}
	if w.rng.Intn(3) > 0 {
		w.submitRandom()
	}
}

// submitRandom hands a random client a job that becomes ready after a
// random delay.
func (w *toyWorld) submitRandom() {
	c := w.clients[w.rng.Intn(len(w.clients))]
	var ready Tick
	if w.rng.Intn(4) > 0 {
		ready = w.e.Now() + w.delay()
	}
	w.nextID++
	c.submit(toyJob{id: w.nextID, arrive: w.e.Now(), ready: ready})
}

// submit queues a job: the client's one input.
func (c *toyClient) submit(j toyJob) {
	w := c.w
	w.logf("submit c%d job %d ready %d", c.id, j.id, j.ready)
	c.jobs = append(c.jobs, j)
	if !w.ticker {
		if !c.pumping {
			c.pumping = true
			w.e.At(alignUp(w.e.Now(), c.period), c.pollFn)
		}
		return
	}
	if c.tk.Armed() {
		c.tk.Wake(j.ready)
		return
	}
	c.lastPoll = w.e.Now()
	c.tk.Arm()
}

// Poll issues the first ready job, if any, and polls again while jobs
// remain. An issue pushes side events and may feed another client
// directly, inside the poll. In ticker runs an empty poll sleeps until
// a random point no later than the earliest ready time, and every poll
// that runs asserts that the edges skipped since the last one would
// all have been empty.
func (c *toyClient) Poll() bool {
	w := c.w
	now := w.e.Now()
	if w.ticker {
		for _, j := range c.jobs {
			first := max(alignUp(j.arrive+1, c.period), alignUp(j.ready, c.period))
			if first > c.lastPoll && first < now {
				w.t.Fatalf("c%d polled at %d, but job %d (arrived %d, ready %d) could issue at skipped edge %d",
					c.id, now, j.id, j.arrive, j.ready, first)
			}
		}
		c.lastPoll = now
	}
	for i, j := range c.jobs {
		if j.ready > now {
			continue
		}
		c.jobs = append(c.jobs[:i], c.jobs[i+1:]...)
		c.issued++
		w.logf("issue c%d job %d", c.id, j.id)
		for n := w.rng.Intn(3); n > 0; n-- {
			w.side(w.delay())
		}
		if len(w.clients) > 1 && w.rng.Intn(2) == 0 {
			peer := w.clients[(c.id+1)%len(w.clients)]
			w.nextID++
			peer.submit(toyJob{id: w.nextID, arrive: now, ready: now + w.delay()})
		}
		return len(c.jobs) > 0
	}
	if w.ticker {
		bound := Tick(infTick)
		for _, j := range c.jobs {
			bound = min(bound, j.ready)
		}
		if bound > now && w.bounds.Intn(3) == 0 {
			bound = now + Tick(w.bounds.Int63n(int64(bound-now)))
		}
		c.tk.Sleep(bound)
	}
	return len(c.jobs) > 0
}

func (c *toyClient) state() string {
	return fmt.Sprintf("c%d issued %d queued %v", c.id, c.issued, c.jobs)
}

// drive runs the world through a random mix of Run, RunBefore (also
// the shard runtime's windows and idle advance) and StepUntil,
// injecting inputs from outside any event between calls. It returns
// the executed sequence and the final state.
func (w *toyWorld) drive(seed int64) []string {
	drv := rand.New(rand.NewSource(seed))
	for i := 0; i < 4; i++ {
		w.side(w.delay())
	}
	for op := 0; op < 120; op++ {
		now := w.e.Now()
		step := Tick(drv.Int63n(int64(40 * Nanosecond)))
		if drv.Intn(4) == 0 {
			step = w.clients[drv.Intn(len(w.clients))].period * Tick(drv.Intn(8))
		}
		switch drv.Intn(3) {
		case 0:
			w.e.Run(now + step)
		case 1:
			w.e.RunBefore(now + step)
		default:
			target := len(w.log) + 1 + drv.Intn(6)
			w.e.StepUntil(func() bool { return len(w.log) >= target })
		}
		if drv.Intn(3) == 0 {
			w.logf("outside")
			w.submitRandom()
		}
		if drv.Intn(3) == 0 {
			w.side(w.delay())
		}
	}
	w.e.Run(w.e.Now() + 100*Microsecond)
	for _, c := range w.clients {
		w.log = append(w.log, c.state())
	}
	w.log = append(w.log, fmt.Sprintf("now %d", w.e.Now()))
	return w.log
}

func diffLogs(t *testing.T, name string, chain, tick []string) {
	t.Helper()
	for i := 0; i < len(chain) && i < len(tick); i++ {
		if chain[i] != tick[i] {
			lo := max(0, i-3)
			t.Fatalf("%s: executed sequences diverge at entry %d:\nchain  %q\nticker %q", name, i, chain[lo:i+1], tick[lo:i+1])
		}
	}
	if len(chain) != len(tick) {
		t.Fatalf("%s: chain logged %d entries, ticker %d", name, len(chain), len(tick))
	}
}

// TestTickerMatchesChain is the ticker's differential test: one
// 1.25 ns client, and two interacting clients on the 0.5 ns and
// 1.25 ns grids, each driven by a self-rescheduling chain and by a
// ticker with honest random sleep bounds.
func TestTickerMatchesChain(t *testing.T) {
	setups := map[string][]Tick{
		"one_client":  {1250},
		"two_clients": {500, 1250},
		"same_grid":   {1250, 1250, 1250},
	}
	for name, periods := range setups {
		for seed := int64(1); seed <= 12; seed++ {
			label := fmt.Sprintf("%s/seed%d", name, seed)
			chain := newToyWorld(t, false, seed, periods...).drive(seed)
			tick := newToyWorld(t, true, seed, periods...).drive(seed)
			diffLogs(t, label, chain, tick)
		}
	}
}

// countingPoller polls until its budget runs out and counts polls.
type countingPoller struct {
	tk    *Ticker
	left  int
	polls []Tick
}

func (p *countingPoller) Poll() bool {
	p.polls = append(p.polls, p.tk.eng.Now())
	p.left--
	return p.left > 0
}

// TestTickerSkipsSleepingPolls checks the bookkeeping directly: polls
// below the bound never run or count, Pending counts the armed ticker
// as one event, and NextEventTime reports the next firing, skipped or
// run, as the chain's queued poll event.
func TestTickerSkipsSleepingPolls(t *testing.T) {
	e := NewEngine()
	p := &countingPoller{left: 3}
	p.tk = NewTicker(e, 1000, p)
	e.Schedule(1500, func() {})
	e.Step()
	p.tk.Arm()
	p.tk.Sleep(10500)
	if got := e.Pending(); got != 1 {
		t.Fatalf("Pending with an armed ticker = %d, want 1", got)
	}
	if when, ok := e.NextEventTime(); !ok || when != 2000 {
		t.Fatalf("NextEventTime = %d, %v; want the first edge 2000", when, ok)
	}
	e.Run(5 * Nanosecond)
	if when, ok := e.NextEventTime(); !ok || when != 6000 {
		t.Fatalf("NextEventTime after Run(5ns) = %d, %v; want the first edge after it, 6000", when, ok)
	}
	e.Run(20 * Nanosecond)
	if want := []Tick{11000, 12000, 13000}; fmt.Sprint(p.polls) != fmt.Sprint(want) {
		t.Fatalf("polls ran at %v, want %v", p.polls, want)
	}
	if got := e.Executed(); got != 4 {
		t.Fatalf("Executed = %d, want 1 event + 3 polls", got)
	}
	if p.tk.Armed() || e.Pending() != 0 {
		t.Fatalf("ticker still armed after its poll declined: armed %v pending %d", p.tk.Armed(), e.Pending())
	}
	// A dormant ticker (no bound) with nothing queued ends Step and
	// Drain instead of spinning.
	p.left = 5
	p.tk.Arm()
	p.tk.Sleep(infTick)
	if e.Step() {
		t.Fatal("Step ran something with only a dormant ticker armed")
	}
	if n := e.Drain(0); n != 0 {
		t.Fatalf("Drain ran %d events with only a dormant ticker armed", n)
	}
	p.tk.Wake(0)
	if n := e.Drain(0); n != 5 {
		t.Fatalf("Drain after Wake ran %d polls, want 5", n)
	}
}

// sleepyPoller re-arms forever and sleeps 40 periods after each poll.
type sleepyPoller struct{ tk *Ticker }

func (p *sleepyPoller) Poll() bool {
	p.tk.Sleep(p.tk.eng.Now() + 40*p.tk.period)
	return true
}

// pumpEventer is a self-rescheduling Eventer: a steady event stream.
type pumpEventer struct {
	e      *Engine
	period Tick
}

func (p *pumpEventer) RunEvent() { p.e.ScheduleEventer(p.period, p) }

// TestTickerStepZeroAlloc proves Step stays allocation-free with a
// sleeping ticker armed beside a self-rescheduling event stream:
// skipping, firing and re-queueing tickers reuse the engine's ticker
// slice.
func TestTickerStepZeroAlloc(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 64; i++ {
		e.ScheduleEventer(Tick(i*37+1), &pumpEventer{e: e, period: 500 + Tick(i)})
	}
	for _, period := range []Tick{1250, 1250, 500} {
		p := &sleepyPoller{}
		p.tk = NewTicker(e, period, p)
		p.tk.Arm()
	}
	e.Drain(20000)
	// AllocsPerRun truncates its average, and a poll runs about once
	// in 1,300 steps here, so count per 5,000 steps.
	if a := testing.AllocsPerRun(10, func() {
		for i := 0; i < 5000; i++ {
			e.Step()
		}
	}); a != 0 {
		t.Fatalf("Step with sleeping tickers allocates %.0f times per 5000 steps, want 0", a)
	}
}
