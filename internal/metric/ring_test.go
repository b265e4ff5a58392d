package metric

import (
	"testing"

	"repro/internal/sim"
)

// bigValue is as large as a flight-recorder PacketTrace (~330 bytes),
// the largest value any observation store keeps in a ring.
type bigValue struct {
	id  int
	pad [40]uint64
}

// checkRing compares every read path of r against model, the values a
// ring of capacity c must retain after the pushes: the last c of them.
func checkRing[T comparable](t *testing.T, r *Ring[T], pushed []T, c int) {
	t.Helper()
	model := pushed
	if len(model) > c {
		model = model[len(model)-c:]
	}
	if r.Len() != len(model) || r.Cap() != c {
		t.Fatalf("len=%d cap=%d, want %d/%d", r.Len(), r.Cap(), len(model), c)
	}
	if want := uint64(len(pushed) - len(model)); r.Dropped() != want {
		t.Fatalf("dropped=%d, want %d", r.Dropped(), want)
	}
	for i, v := range model {
		if r.At(i) != v {
			t.Fatalf("At(%d) differs from the model", i)
		}
	}
	last, ok := r.Last()
	if ok != (len(model) > 0) || (ok && last != model[len(model)-1]) {
		t.Fatalf("Last ok=%v differs from the model", ok)
	}
	sentinel := *new(T)
	got := r.AppendTo([]T{sentinel})
	if len(got) != len(model)+1 || got[0] != sentinel {
		t.Fatalf("AppendTo returned %d values, want %d after the prefix", len(got)-1, len(model))
	}
	for i, v := range model {
		if got[i+1] != v {
			t.Fatalf("AppendTo[%d] differs from the model", i)
		}
	}
}

// TestRingRecordAndWrap checks the ring against a slice that keeps the
// last cap values, for every capacity 1-8 and 0-40 pushes, with a small
// value written through Push and a large one written in place through
// Next.
func TestRingRecordAndWrap(t *testing.T) {
	for c := 1; c <= 8; c++ {
		for n := 0; n <= 40; n++ {
			small := NewRing[Sample](c)
			var smallPushed []Sample
			big := NewRing[bigValue](c)
			var bigPushed []bigValue
			for i := 0; i < n; i++ {
				s := Sample{When: sim.Tick(i * 10), Value: float64(i)}
				small.Push(s)
				smallPushed = append(smallPushed, s)

				v := bigValue{id: i}
				v.pad[i%len(v.pad)] = uint64(i)
				*big.Next() = v
				bigPushed = append(bigPushed, v)
			}
			checkRing(t, small, smallPushed, c)
			checkRing(t, big, bigPushed, c)
		}
	}
}

func TestRingAtPanics(t *testing.T) {
	r := NewRing[Sample](2)
	r.Push(Sample{When: 1, Value: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("At(1) on a 1-sample ring did not panic")
		}
	}()
	r.At(1)
}

func TestRingCapacityClamp(t *testing.T) {
	r := NewRing[Sample](0)
	r.Push(Sample{When: 1, Value: 2})
	r.Push(Sample{When: 2, Value: 3})
	if r.Cap() != 1 || r.Len() != 1 || r.Dropped() != 1 {
		t.Fatalf("cap=%d len=%d dropped=%d", r.Cap(), r.Len(), r.Dropped())
	}
}

func TestRingRecordDoesNotAllocate(t *testing.T) {
	r := NewRing[Sample](64)
	allocs := testing.AllocsPerRun(1000, func() {
		r.Push(Sample{When: 1, Value: 1})
	})
	if allocs != 0 {
		t.Fatalf("Push allocates %.1f per call, want 0", allocs)
	}
	big := NewRing[bigValue](8)
	allocs = testing.AllocsPerRun(1000, func() {
		big.Next().id++
	})
	if allocs != 0 {
		t.Fatalf("Next allocates %.1f per call, want 0", allocs)
	}
}
