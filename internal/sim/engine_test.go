package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %d, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

func TestScheduleAdvancesTime(t *testing.T) {
	e := NewEngine()
	var at Tick
	e.Schedule(100, func() { at = e.Now() })
	if !e.Step() {
		t.Fatal("Step returned false with a pending event")
	}
	if at != 100 {
		t.Fatalf("event ran at %d, want 100", at)
	}
	if e.Now() != 100 {
		t.Fatalf("Now() = %d, want 100", e.Now())
	}
}

func TestEventsRunInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []Tick
	for _, d := range []Tick{50, 10, 30, 20, 40} {
		d := d
		e.Schedule(d, func() { order = append(order, d) })
	}
	e.Drain(0)
	if !sort.SliceIsSorted(order, func(i, j int) bool { return order[i] < order[j] }) {
		t.Fatalf("events ran out of order: %v", order)
	}
	if len(order) != 5 {
		t.Fatalf("ran %d events, want 5", len(order))
	}
}

func TestSameTickFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(7, func() { order = append(order, i) })
	}
	e.Drain(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-tick events not FIFO: %v", order)
		}
	}
}

func TestPastEventClampsToNow(t *testing.T) {
	e := NewEngine()
	e.Schedule(100, func() {
		// Schedule "in the past"; must run at now, not before.
		e.At(5, func() {
			if e.Now() != 100 {
				t.Errorf("clamped event ran at %d, want 100", e.Now())
			}
		})
	})
	e.Drain(0)
}

func TestRunHorizon(t *testing.T) {
	e := NewEngine()
	ran := map[Tick]bool{}
	for _, d := range []Tick{10, 20, 30, 40} {
		d := d
		e.Schedule(d, func() { ran[d] = true })
	}
	e.Run(25)
	if !ran[10] || !ran[20] {
		t.Fatal("events inside horizon did not run")
	}
	if ran[30] || ran[40] {
		t.Fatal("events beyond horizon ran")
	}
	if e.Now() != 25 {
		t.Fatalf("Now() = %d, want 25 after Run(25)", e.Now())
	}
	e.Run(100)
	if !ran[30] || !ran[40] {
		t.Fatal("remaining events did not run on second Run")
	}
}

func TestCascadedScheduling(t *testing.T) {
	e := NewEngine()
	depth := 0
	var step func()
	step = func() {
		depth++
		if depth < 100 {
			e.Schedule(1, step)
		}
	}
	e.Schedule(1, step)
	e.Drain(0)
	if depth != 100 {
		t.Fatalf("cascade depth = %d, want 100", depth)
	}
	if e.Now() != 100 {
		t.Fatalf("Now() = %d, want 100", e.Now())
	}
}

func TestDrainLimit(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 10; i++ {
		e.Schedule(Tick(i), func() {})
	}
	if n := e.Drain(4); n != 4 {
		t.Fatalf("Drain(4) = %d, want 4", n)
	}
	if e.Pending() != 6 {
		t.Fatalf("Pending() = %d, want 6", e.Pending())
	}
}

func TestNilEventPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling nil fn did not panic")
		}
	}()
	NewEngine().Schedule(1, nil)
}

// Property: for any set of delays, events run in nondecreasing time order
// and the engine clock never moves backwards.
func TestPropertyMonotonicTime(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var times []Tick
		for _, d := range delays {
			e.Schedule(Tick(d), func() { times = append(times, e.Now()) })
		}
		e.Drain(0)
		if len(times) != len(delays) {
			return false
		}
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaved scheduling from inside events preserves ordering.
func TestPropertyNestedScheduling(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	e := NewEngine()
	var last Tick
	ok := true
	var spawn func(depth int)
	spawn = func(depth int) {
		if e.Now() < last {
			ok = false
		}
		last = e.Now()
		if depth > 0 {
			e.Schedule(Tick(r.Intn(50)), func() { spawn(depth - 1) })
		}
	}
	for i := 0; i < 50; i++ {
		e.Schedule(Tick(r.Intn(1000)), func() { spawn(5) })
	}
	e.Drain(0)
	if !ok {
		t.Fatal("time went backwards during nested scheduling")
	}
}

func TestTickString(t *testing.T) {
	cases := []struct {
		t    Tick
		want string
	}{
		{500, "500ps"},
		{1500, "1.500ns"},
		{2 * Microsecond, "2.000us"},
		{3*Millisecond + 250*Microsecond, "3.250ms"},
		{Second, "1.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Tick(%d).String() = %q, want %q", uint64(c.t), got, c.want)
		}
	}
}

func TestExecutedCounter(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.Schedule(1, func() {})
	}
	e.Drain(0)
	if e.Executed() != 7 {
		t.Fatalf("Executed() = %d, want 7", e.Executed())
	}
}

// A queue entry is (when, seq, Eventer): 8 + 8 + 16 bytes. Closures ride
// the funcEvent adapter rather than a field of their own, and per-layer
// event counts take the layer from the dispatched Eventer, so the entry
// stays at 32 bytes.
func TestEventEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n != 32 {
		t.Fatalf("event entry is %d bytes, want 32", n)
	}
}
