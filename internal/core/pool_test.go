package core

import (
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/sim"
)

func TestPooledPacketRecycles(t *testing.T) {
	ids := &IDSource{}
	ids.EnablePool()
	p1 := NewPacket(ids, KindMemWrite, 3, 0x1000, 64, 7)
	p1.OnDone = func(*Packet) {}
	p1.Vector = 9
	p1.Complete(11)
	if ids.FreeCount() != 1 {
		t.Fatalf("free count = %d, want 1 after Complete", ids.FreeCount())
	}
	p2 := NewPacket(ids, KindMemRead, 1, 0x2000, 32, 20)
	if p2 != p1 {
		t.Fatal("pooled NewPacket did not reuse the recycled packet")
	}
	if ids.FreeCount() != 0 {
		t.Fatalf("free count = %d, want 0 after reuse", ids.FreeCount())
	}
	// Full reset: nothing from the previous life survives.
	if p2.Kind != KindMemRead || p2.DSID != 1 || p2.Addr != 0x2000 ||
		p2.Size != 32 || p2.Issue != 20 {
		t.Fatalf("recycled packet fields not reset: %v", p2)
	}
	if p2.Completed() || p2.Done != 0 || p2.OnDone != nil || p2.Vector != 0 {
		t.Fatal("recycled packet retained completion state")
	}
	if p2.ID != 2 {
		t.Fatalf("recycled packet id = %d, want fresh id 2", p2.ID)
	}
}

// TestNewPacketResetsRecycled sets every field of a pooled packet,
// unexported ones included, to a non-zero value, recycles it, and
// checks that NewPacket hands it back holding only its six arguments
// and its source. A field added to Packet and not reset in NewPacket
// fails here instead of leaking from a packet's previous life.
func TestNewPacketResetsRecycled(t *testing.T) {
	ids := &IDSource{}
	ids.EnablePool()
	p := new(Packet)
	v := reflect.ValueOf(p).Elem()
	for i := 0; i < v.NumField(); i++ {
		setNonZero(t, v.Type().Field(i).Name, settable(v.Field(i)))
	}
	p.ID = 1 << 40
	ids.free = append(ids.free, p)

	q := NewPacket(ids, KindMemWrite, 3, 0x40, 64, 9)
	if q != p {
		t.Fatal("NewPacket did not reuse the recycled packet")
	}
	want := map[string]any{
		"ID":   uint64(1), // a fresh source's first
		"Kind": KindMemWrite, "DSID": DSID(3), "Addr": uint64(0x40),
		"Size": uint32(64), "Issue": sim.Tick(9), "src": ids,
	}
	for i := 0; i < v.NumField(); i++ {
		name, f := v.Type().Field(i).Name, settable(v.Field(i))
		if w, ok := want[name]; ok {
			if f.Interface() != w {
				t.Errorf("field %s = %v, want %v", name, f.Interface(), w)
			}
		} else if !f.IsZero() {
			t.Errorf("field %s survived recycling: %v", name, f.Interface())
		}
	}
}

// settable returns f, a field of an addressable struct, as a value that
// can be read and set even when the field is unexported.
func settable(f reflect.Value) reflect.Value {
	return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
}

// setNonZero stores a non-zero value of f's type in f.
func setNonZero(t *testing.T, name string, f reflect.Value) {
	t.Helper()
	switch f.Kind() {
	case reflect.Bool:
		f.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		f.SetInt(1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		f.SetUint(1)
	case reflect.String:
		f.SetString("x")
	case reflect.Pointer:
		f.Set(reflect.New(f.Type().Elem()))
	case reflect.Slice:
		f.Set(reflect.MakeSlice(f.Type(), 1, 1))
	case reflect.Map:
		f.Set(reflect.MakeMap(f.Type()))
	case reflect.Func:
		f.Set(reflect.MakeFunc(f.Type(), func([]reflect.Value) []reflect.Value {
			out := make([]reflect.Value, f.Type().NumOut())
			for i := range out {
				out[i] = reflect.Zero(f.Type().Out(i))
			}
			return out
		}))
	default:
		t.Fatalf("field %s: setNonZero does not handle %s; extend it", name, f.Kind())
	}
}

func TestUnpooledSourceRetainsNothing(t *testing.T) {
	ids := &IDSource{} // zero value: unpooled
	p := NewPacket(ids, KindMemRead, 1, 0, 64, 0)
	p.Complete(5)
	if ids.FreeCount() != 0 {
		t.Fatal("unpooled source recycled a packet")
	}
	// Retaining a completed packet is legal without pooling.
	q := NewPacket(ids, KindMemRead, 1, 0, 64, 0)
	if q == p {
		t.Fatal("unpooled NewPacket aliased a completed packet")
	}
	if p.Done != 5 {
		t.Fatal("completed packet mutated")
	}
}

func TestScheduleCallRunsThroughSlot(t *testing.T) {
	e := sim.NewEngine()
	clk := sim.NewClock(e, 500)
	ids := &IDSource{}
	p := NewPacket(ids, KindMemRead, 1, 0, 64, 0)
	hops := 0
	var hop func(*Packet)
	hop = func(q *Packet) {
		if q != p {
			t.Fatal("slot callback received the wrong packet")
		}
		hops++
		if hops < 3 {
			// The slot is cleared before invocation: rescheduling from
			// inside the callback is legal.
			q.ScheduleCall(clk, 1, hop)
		} else {
			q.Complete(e.Now())
		}
	}
	p.ScheduleCall(clk, 2, hop)
	e.Drain(0)
	if hops != 3 || !p.Completed() {
		t.Fatalf("hops=%d completed=%v, want 3/true", hops, p.Completed())
	}
	if e.Now() != clk.Cycles(4) {
		t.Fatalf("completed at %v, want 4 cycles", e.Now())
	}
}

func TestScheduleCallOverlapPanics(t *testing.T) {
	e := sim.NewEngine()
	clk := sim.NewClock(e, 500)
	p := NewPacket(&IDSource{}, KindMemRead, 1, 0, 64, 0)
	p.ScheduleCall(clk, 1, func(*Packet) {})
	defer func() {
		if recover() == nil {
			t.Fatal("overlapping ScheduleCall accepted")
		}
	}()
	p.ScheduleCall(clk, 1, func(*Packet) {})
}

// Completing a packet that still has a scheduled call pending would let
// the engine later fire a stale (possibly recycled) slot: panic instead.
func TestCompleteWithPendingCallPanics(t *testing.T) {
	e := sim.NewEngine()
	clk := sim.NewClock(e, 500)
	p := NewPacket(&IDSource{}, KindMemRead, 1, 0, 64, 0)
	p.ScheduleCall(clk, 1, func(*Packet) {})
	defer func() {
		if recover() == nil {
			t.Fatal("Complete with a pending call accepted")
		}
	}()
	p.Complete(e.Now())
}
