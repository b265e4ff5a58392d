package sim

import (
	"math/rand"
	"testing"
)

// driveQueues pushes/pops both queue implementations through the same
// schedule and fails if their pop sequences ever diverge. ops > 0 means
// "push an event at tick op-1"; op == 0 means "pop one event" (skipped
// while empty). seq mimics the engine's strictly increasing counter.
func driveQueues(t *testing.T, name string, ops []int64) {
	t.Helper()
	heap := &binHeap{}
	cal := newCalQueue()
	var seq uint64
	pending := 0
	for i, op := range ops {
		if op > 0 {
			seq++
			ev := event{when: Tick(op - 1), seq: seq}
			heap.push(ev)
			cal.push(ev)
			pending++
			continue
		}
		if pending == 0 {
			continue
		}
		hw, hok := heap.peek()
		cw, cok := cal.peek()
		if hok != cok || hw != cw {
			t.Fatalf("%s: op %d: peek mismatch heap=(%d,%v) cal=(%d,%v)", name, i, hw, hok, cw, cok)
		}
		he := heap.pop()
		ce := cal.pop()
		if he.when != ce.when || he.seq != ce.seq {
			t.Fatalf("%s: op %d: pop mismatch heap=(%d,%d) cal=(%d,%d)",
				name, i, he.when, he.seq, ce.when, ce.seq)
		}
		pending--
		if heap.size() != cal.size() {
			t.Fatalf("%s: op %d: size mismatch heap=%d cal=%d", name, i, heap.size(), cal.size())
		}
	}
	// Drain whatever remains and compare the full tail.
	for pending > 0 {
		he := heap.pop()
		ce := cal.pop()
		if he.when != ce.when || he.seq != ce.seq {
			t.Fatalf("%s: drain: pop mismatch heap=(%d,%d) cal=(%d,%d)",
				name, he.when, he.seq, ce.when, ce.seq)
		}
		pending--
	}
	if cal.size() != 0 {
		t.Fatalf("%s: calendar reports %d pending after drain", name, cal.size())
	}
}

// TestCalendarMatchesHeapAdversarial targets the calendar queue's
// structural edges: ticks on exact bucket boundaries, mass same-tick
// ties, and far-future outliers that force ladder respill and window
// teleports.
func TestCalendarMatchesHeapAdversarial(t *testing.T) {
	width := int64(1) << calInitShift
	span := width * calBuckets

	var boundary []int64
	for i := int64(0); i < 200; i++ {
		for _, d := range []int64{0, 1, width - 1, width, width + 1} {
			boundary = append(boundary, i*width+d+1)
		}
		if i%3 == 0 {
			boundary = append(boundary, 0, 0) // interleaved pops
		}
	}
	t.Run("bucket_boundaries", func(t *testing.T) { driveQueues(t, "boundaries", boundary) })

	var ties []int64
	for block := int64(0); block < 8; block++ {
		tick := block*37 + 1
		for i := 0; i < 3000; i++ {
			ties = append(ties, tick)
		}
		for i := 0; i < 1500; i++ {
			ties = append(ties, 0)
		}
	}
	t.Run("mass_same_tick", func(t *testing.T) { driveQueues(t, "ties", ties) })

	var far []int64
	base := int64(1)
	for i := 0; i < 2000; i++ {
		far = append(far, base+int64(i)%span)
		switch i % 17 {
		case 3:
			// Outlier several full ring spans ahead: lands in the far
			// tier and must respill once the window slides to it.
			far = append(far, base+span*3+int64(i))
		case 7:
			// Outlier so remote it forces jumpToFar teleports when the
			// ring drains.
			far = append(far, base+(int64(1)<<40)+int64(i))
		case 11:
			far = append(far, 0, 0, 0)
		}
	}
	// Drain fully so the teleports actually happen, then refill.
	for i := 0; i < 6000; i++ {
		far = append(far, 0)
	}
	for i := 0; i < 500; i++ {
		far = append(far, (int64(1)<<40)+base+int64(i)*span+1)
		far = append(far, 0)
	}
	t.Run("far_outliers", func(t *testing.T) { driveQueues(t, "far", far) })
}

// TestCalendarMatchesHeapRandom drives both queues through randomized
// push/pop interleavings at several time scales (dense ties through
// sparse far-future spreads), enough volume to cross multiple retunes.
func TestCalendarMatchesHeapRandom(t *testing.T) {
	for _, scale := range []int64{16, 1 << 10, 1 << 20, 1 << 34} {
		r := rand.New(rand.NewSource(7*scale + 1))
		var ops []int64
		now := int64(0) // engine-style clamp floor so times mostly advance
		for i := 0; i < 30000; i++ {
			if r.Intn(3) == 0 {
				ops = append(ops, 0)
				continue
			}
			when := now + r.Int63n(scale)
			if r.Intn(50) == 0 {
				when += scale * calBuckets // overflow the ring span
			}
			ops = append(ops, when+1)
			if r.Intn(4) == 0 {
				now += r.Int63n(scale/8 + 1)
			}
		}
		driveQueues(t, "random", ops)
	}
}

// TestCalendarEngineEquivalence runs the same self-rescheduling workload
// on a heap engine and a calendar engine and requires identical
// execution journals — the engine-level version of the pop-order
// property, covering seq assignment and Run/RunBefore peeking.
func TestCalendarEngineEquivalence(t *testing.T) {
	journal := func(kind QueueKind) []Tick {
		e := NewEngine(WithQueue(kind))
		var log []Tick
		r := rand.New(rand.NewSource(99))
		var pump func(id int, period Tick) func()
		pump = func(id int, period Tick) func() {
			return func() {
				log = append(log, e.Now()*31+Tick(id))
				e.Schedule(period, pump(id, period))
			}
		}
		for i := 0; i < 64; i++ {
			e.Schedule(Tick(r.Intn(5000)), pump(i, Tick(1+r.Intn(997))))
		}
		e.Run(200 * Nanosecond)
		e.RunBefore(300 * Nanosecond)
		return log
	}
	h := journal(Heap)
	c := journal(Calendar)
	if len(h) != len(c) {
		t.Fatalf("journal lengths differ: heap=%d calendar=%d", len(h), len(c))
	}
	for i := range h {
		if h[i] != c[i] {
			t.Fatalf("journals diverge at %d: heap=%d calendar=%d", i, h[i], c[i])
		}
	}
	if len(h) == 0 {
		t.Fatal("empty journal")
	}
}

// calTestPump is a self-rescheduling Eventer for allocation tests.
type calTestPump struct {
	e      *Engine
	period Tick
}

func (p *calTestPump) RunEvent() { p.e.ScheduleEventer(p.period, p) }

// TestCalendarZeroAllocSteadyState proves the calendar queue's
// steady-state schedule/dispatch loop allocates nothing once its
// backing arrays are warm, at both small and large pending populations.
func TestCalendarZeroAllocSteadyState(t *testing.T) {
	for _, pending := range []int{64, 20000} {
		e := NewEngine(WithQueue(Calendar))
		for i := 0; i < pending; i++ {
			p := &calTestPump{e: e, period: Tick(pending)}
			e.ScheduleEventer(Tick(i+1), p)
		}
		// Warm up past several retune periods so bucket width converges
		// and every slice reaches steady capacity.
		e.Drain(uint64(pending)*4 + 6*calRetunePops)
		if a := testing.AllocsPerRun(2000, func() { e.Step() }); a != 0 {
			t.Fatalf("pending=%d: steady-state Step allocates %.1f/op, want 0", pending, a)
		}
	}
}

func TestQueueKindSelection(t *testing.T) {
	if k := NewEngine().Queue(); k != Heap {
		t.Fatalf("default queue = %v, want heap", k)
	}
	if k := NewEngine(WithQueue(Calendar)).Queue(); k != Calendar {
		t.Fatalf("WithQueue(Calendar) engine reports %v", k)
	}
	if Heap.String() != "heap" || Calendar.String() != "calendar" {
		t.Fatalf("QueueKind names: %q %q", Heap.String(), Calendar.String())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("WithQueue with an unknown kind did not panic")
		}
	}()
	NewEngine(WithQueue(QueueKind(42)))
}

// TestCalendarMatchesHeapHoldModel drives both queues the way an
// engine does (the classic hold model): pop the minimum, then push one
// or two successors at now plus a delay drawn from four scales — same
// tick, under 2 ns, under 200 ns and under 20 us. Mixed scales make the
// retune swing the bucket width both ways while events sit in every
// tier, which is where a horizon realignment can break the pop order.
func TestCalendarMatchesHeapHoldModel(t *testing.T) {
	scales := []int64{0, 2 * int64(Nanosecond), 200 * int64(Nanosecond), 20 * int64(Microsecond)}
	for trial := int64(0); trial < 8; trial++ {
		r := rand.New(rand.NewSource(trial + 1))
		heap := &binHeap{}
		cal := newCalQueue()
		var seq uint64
		push := func(when Tick) {
			seq++
			ev := event{when: when, seq: seq}
			heap.push(ev)
			cal.push(ev)
		}
		for i := 0; i < 64; i++ {
			push(Tick(r.Int63n(int64(Microsecond))))
		}
		for pop := 0; pop < 60000; pop++ {
			he, ce := heap.pop(), cal.pop()
			if he.when != ce.when || he.seq != ce.seq {
				t.Fatalf("trial %d pop %d: heap popped (%d, seq %d), calendar (%d, seq %d)",
					trial, pop, he.when, he.seq, ce.when, ce.seq)
			}
			for n := 1 + r.Intn(2); n > 0; n-- {
				d := Tick(0)
				if s := scales[r.Intn(len(scales))]; s > 0 {
					d = Tick(r.Int63n(s))
				}
				push(he.when + d)
			}
		}
	}
}
