package sim

// Calendar/ladder event queue: the Engine's O(1)-amortized queue
// discipline for large pending-event populations (select with
// NewEngine(WithQueue(Calendar))).
//
// Layout — three tiers by distance from the clock cursor hNear:
//
//	near     binary min-heap ordered by event.before. Holds every
//	         pending event with when < hNear, plus whatever the last
//	         bucket pull promoted. The global minimum always lives here,
//	         so pop is a plain heap pop.
//	buckets  a power-of-two ring of calBuckets unsorted slices, each
//	         covering a width of 1<<shift ticks. An event with
//	         hNear <= when < hFar lands in bucket (when>>shift)&calMask.
//	far      one unsorted overflow slice for when >= hFar, with a
//	         cached minimum (farMin). Far events re-enter the ring as
//	         the cursor approaches them.
//
// When near runs dry, advance() pulls the current bucket's window
// [hNear, hNear+width) into the heap and slides both horizons one
// width forward. Steady-state cost per event is O(1) amortized: one
// append on push, one bucket membership test plus a small-heap
// push/pop around execution. The heap only ever holds roughly one
// bucket's worth of events, so its log factor is bounded by the
// retuned bucket density, not by total pending events.
//
// Tie rule: ordering decisions happen exclusively in the near heap via
// event.before — the identical (when, seq) rule the binary heap queue
// uses. Buckets never reorder anything; they only partition by
// timestamp. The pop sequence equals binHeap's because near holds
// exactly the pending events below hNear, so its minimum is the global
// one. Keeping that invariant means hNear never drops while near or
// the ring holds anything (reshift aligns it up; jumpToFar lowers it
// only when both are empty). Property-tested in calendar_test.go,
// including an engine-shaped hold model.
//
// Determinism: bucket width retunes are driven only by pop and window
// counters — never by wall clock or map iteration — so two runs with
// the same push/pop sequence make identical retune decisions.
//
// Zero allocations in steady state: all appends go to struct fields or
// indexed bucket slots whose backing arrays are reused after clear;
// the rebuild scratch (spill) is likewise retained across retunes.

const (
	// calBuckets is the ring size; a power of two so the bucket index
	// is a shift+mask.
	calBuckets = 1024
	calMask    = calBuckets - 1
	// calMaxShift caps the bucket width at 2^44 ticks (~17.6 sim
	// seconds), keeping span arithmetic far from Tick overflow while
	// covering any realistic event horizon.
	calMaxShift = 44
	// calRetunePops is how many pops elapse between bucket-width
	// retune decisions.
	calRetunePops = 4096
	// calTargetDensity is the aimed events-per-bucket-window; retune
	// steers the measured density into [calTargetDensity/2,
	// 2*calTargetDensity].
	calTargetDensity = 4
	// calInitShift starts buckets at 2^10 ticks (~1ns) wide.
	calInitShift = 10
)

type calQueue struct {
	near    []event // min-heap by event.before; holds all events < hNear
	buckets [calBuckets][]event
	far     []event

	hNear  Tick // events below this live in near
	hFar   Tick // events at or above this live in far
	farMin Tick // min timestamp in far; meaningless when far is empty
	shift  uint // bucket width = 1 << shift

	// maxWhen is an upper bound on the latest pending timestamp (stale
	// after pops, refreshed on reshift). retune floors the ring span at
	// the pending spread [hNear, maxWhen], which keeps the far tier
	// near-empty: drainFar rescans all of far on every window slide, so
	// a permanently large far tier would cost O(n) per event.
	maxWhen Tick

	n  int // total pending events
	nb int // events currently in buckets

	pops  uint64 // pops since the last retune
	winds uint64 // bucket windows consumed since the last retune

	spill []event // reusable scratch for retune redistribution
}

func newCalQueue() *calQueue {
	q := &calQueue{shift: calInitShift}
	q.hFar = Tick(calBuckets) << q.shift
	return q
}

func (q *calQueue) size() int { return q.n }

func (q *calQueue) push(ev event) {
	q.n++
	if ev.when > q.maxWhen {
		q.maxWhen = ev.when
	}
	switch {
	case ev.when < q.hNear:
		q.heapPush(ev)
	case ev.when < q.hFar:
		i := int(ev.when>>q.shift) & calMask
		q.buckets[i] = append(q.buckets[i], ev)
		q.nb++
	default:
		if len(q.far) == 0 || ev.when < q.farMin {
			q.farMin = ev.when
		}
		q.far = append(q.far, ev)
	}
}

func (q *calQueue) peek() (Tick, bool) {
	if len(q.near) == 0 {
		if q.n == 0 {
			return 0, false
		}
		q.advance()
	}
	return q.near[0].when, true
}

func (q *calQueue) head() *event {
	if len(q.near) == 0 {
		if q.n == 0 {
			return nil
		}
		q.advance()
	}
	return &q.near[0]
}

// pop removes and returns the (when, seq)-minimal event. The caller
// must know the queue is non-empty (the Engine checks size first).
func (q *calQueue) pop() event {
	if len(q.near) == 0 {
		q.advance()
	}
	ev := q.heapPop()
	q.n--
	q.pops++
	if q.pops >= calRetunePops {
		q.retune()
	}
	return ev
}

// advance slides the bucket window forward until the near heap holds
// at least one event. Precondition: q.n > len(q.near), i.e. something
// is pending outside the heap.
func (q *calQueue) advance() {
	width := Tick(1) << q.shift
	for len(q.near) == 0 {
		if q.nb == 0 {
			if len(q.far) == 0 {
				return // queue empty; callers checked size already
			}
			q.jumpToFar()
			width = Tick(1) << q.shift
			continue
		}
		// Pull the events of window [hNear, hNear+width) out of the
		// current bucket. The bucket may also hold later laps of the
		// ring (only near Tick saturation); partition keeps those.
		bound := q.hNear + width
		if bound < q.hNear {
			bound = ^Tick(0) // clock at end of representable time
		}
		i := int(q.hNear>>q.shift) & calMask
		if b := q.buckets[i]; len(b) > 0 {
			w := 0
			for j := range b {
				if b[j].when < bound {
					q.heapPush(b[j])
				} else {
					b[w] = b[j]
					w++
				}
			}
			q.nb -= len(b) - w
			clear(b[w:])
			q.buckets[i] = b[:w]
		}
		q.hNear = bound
		q.winds++
		q.slideFar()
	}
}

// slideFar moves the far horizon in lockstep with hNear and re-homes
// any far events the window now covers.
func (q *calQueue) slideFar() {
	span := Tick(calBuckets) << q.shift
	hf := q.hNear + span
	if hf < q.hNear {
		hf = ^Tick(0)
	}
	q.hFar = hf
	if len(q.far) > 0 && q.farMin < q.hFar {
		q.drainFar()
	}
}

// jumpToFar handles an empty ring with pending far events: rather than
// sliding one bucket at a time across a dead zone, teleport the window
// to the earliest far event.
func (q *calQueue) jumpToFar() {
	width := Tick(1) << q.shift
	q.hNear = q.farMin &^ (width - 1)
	q.slideFar() // recomputes hFar and drains covered far events
	if q.nb == 0 && len(q.far) > 0 {
		// Only reachable when hFar saturated at the very end of
		// representable time and events sit exactly at ^Tick(0): fall
		// back to heaping everything, which keeps ordering exact.
		for i := range q.far {
			q.heapPush(q.far[i])
		}
		clear(q.far)
		q.far = q.far[:0]
		q.hNear = ^Tick(0)
		q.hFar = ^Tick(0)
	}
}

// drainFar moves every far event now below hFar into the ring,
// compacting the remainder in place and refreshing farMin.
func (q *calQueue) drainFar() {
	w := 0
	var min Tick
	for _, ev := range q.far {
		if ev.when < q.hFar {
			if ev.when < q.hNear {
				// Far events are always >= the hFar they missed, which
				// never drops below hNear; promote defensively.
				q.heapPush(ev)
				continue
			}
			i := int(ev.when>>q.shift) & calMask
			q.buckets[i] = append(q.buckets[i], ev)
			q.nb++
			continue
		}
		if w == 0 || ev.when < min {
			min = ev.when
		}
		q.far[w] = ev
		w++
	}
	clear(q.far[w:])
	q.far = q.far[:w]
	q.farMin = min
}

// retune adjusts the bucket width toward calTargetDensity events per
// window, using only the pop/window counters accumulated since the
// last retune — a deterministic function of the schedule.
func (q *calQueue) retune() {
	pops, winds := q.pops, q.winds
	q.pops, q.winds = 0, 0
	if winds == 0 {
		// All pops came straight from the near heap (mass same-tick
		// burst, or post-saturation fallback): no density signal.
		return
	}
	d := pops / winds
	if d == 0 {
		d = 1
	}
	ns := q.shift
	for ; d > 2*calTargetDensity && ns > 0; d >>= 1 {
		ns-- // too dense: narrower buckets
	}
	for ; 2*d < calTargetDensity && ns < calMaxShift; d <<= 1 {
		ns++ // too sparse: wider buckets
	}
	// Cover floor: never let the ring span shrink below the pending
	// spread. Large populations then run at density ~n/calBuckets per
	// bucket (the classic calendar-queue operating point) instead of
	// pushing the bulk into the far tier, whose per-slide rescan would
	// degenerate to O(n) per event.
	if q.n > 0 && q.maxWhen > q.hNear {
		spread := q.maxWhen - q.hNear
		for ns < calMaxShift && Tick(calBuckets)<<ns <= spread {
			ns++
		}
	}
	if ns != q.shift {
		q.reshift(ns)
	}
}

// reshift rebuilds the ring under a new bucket width. hNear is
// realigned upward to the new width, and ring events the raised
// horizon now covers move into near. Aligning it down would leave near
// holding events at or above the lowered horizon, and a later push
// into that gap would go to a bucket and pop after them.
func (q *calQueue) reshift(ns uint) {
	q.shift = ns
	width := Tick(1) << ns
	if up := (q.hNear + width - 1) &^ (width - 1); up >= q.hNear {
		q.hNear = up
	} else {
		q.hNear = ^Tick(0) // no aligned horizon above: everything goes to near
	}
	span := Tick(calBuckets) << ns
	hf := q.hNear + span
	if hf < q.hNear {
		hf = ^Tick(0)
	}
	q.hFar = hf

	q.spill = q.spill[:0]
	for i := range q.buckets {
		q.spill = append(q.spill, q.buckets[i]...)
		clear(q.buckets[i])
		q.buckets[i] = q.buckets[i][:0]
	}
	q.nb = 0
	for _, ev := range q.spill {
		switch {
		case ev.when < q.hNear:
			q.heapPush(ev)
		case ev.when < q.hFar:
			i := int(ev.when>>ns) & calMask
			q.buckets[i] = append(q.buckets[i], ev)
			q.nb++
		default:
			if len(q.far) == 0 || ev.when < q.farMin {
				q.farMin = ev.when
			}
			q.far = append(q.far, ev)
		}
	}
	clear(q.spill)
	q.spill = q.spill[:0]
	if len(q.far) > 0 && q.farMin < q.hFar {
		q.drainFar()
	}
}

// heapPush / heapPop mirror binHeap's inlined sift loops on the near
// tier; see engine.go for why container/heap is not used.

func (q *calQueue) heapPush(ev event) {
	q.near = append(q.near, ev)
	h := q.near
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

func (q *calQueue) heapPop() event {
	h := q.near
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // release fn/ev for GC
	h = h[:n]
	q.near = h
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
