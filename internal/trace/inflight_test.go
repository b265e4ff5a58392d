package trace

import "testing"

// checkInflight asserts that f holds exactly ref's IDs, each mapped to
// its trace, and stays at most half full.
func checkInflight(t *testing.T, f *inflight, ref map[uint64]*PacketTrace) {
	t.Helper()
	if f.n != len(ref) {
		t.Fatalf("table holds %d traces, reference %d", f.n, len(ref))
	}
	if 2*f.n > len(f.slots) {
		t.Fatalf("table more than half full: %d of %d slots", f.n, len(f.slots))
	}
	for id, want := range ref {
		if got := f.get(id); got != want {
			t.Fatalf("get(%d) = %p, want %p", id, got, want)
		}
	}
}

// inflightOps drives f and a map through the same put/get/delete
// sequence, checking after every step. Each op takes two bytes: the
// first picks the operation, the second an ID. IDs are multiples of
// the sampling divisor (1<<shift) whose home slots cluster near the
// end of a 64-slot table (56..71) and repeat every 64 slots, so the
// sequences hit equal homes modulo the table size, runs that wrap
// around the end, and growth while such a run is live.
func inflightOps(t *testing.T, shift uint, ops []byte) {
	f := newInflight(shift)
	ref := make(map[uint64]*PacketTrace)
	for k := 0; k+1 < len(ops); k += 2 {
		sel := uint64(ops[k+1])
		id := (56 + sel&15 + 64*(sel>>4)) << shift
		switch ops[k] % 3 {
		case 0:
			if _, ok := ref[id]; ok {
				continue // put requires an absent ID, as Recorder.state guarantees
			}
			tr := &PacketTrace{ID: id}
			f.put(id, tr)
			ref[id] = tr
		case 1:
			if got, want := f.get(id), ref[id]; got != want {
				t.Fatalf("op %d: get(%d) = %p, reference %p", k/2, id, got, want)
			}
		case 2:
			f.delete(id)
			delete(ref, id)
		}
		checkInflight(t, &f, ref)
	}
}

// FuzzInflight checks the in-flight table against a map under random
// put, get and delete sequences.
func FuzzInflight(f *testing.F) {
	f.Add(uint8(0), []byte{0, 8, 0, 72, 0, 136, 2, 8, 1, 72, 1, 136})
	f.Add(uint8(6), []byte{0, 7, 0, 71, 0, 8, 2, 7, 1, 71, 1, 8})
	grow := make([]byte, 0, 80)
	for i := 0; i < 40; i++ {
		grow = append(grow, 0, byte(i*16+i%16))
	}
	f.Add(uint8(0), grow)
	f.Fuzz(func(t *testing.T, shift uint8, ops []byte) {
		inflightOps(t, uint(shift%8), ops)
	})
}

// TestInflightCases walks the fuzz target's named cases
// deterministically.
func TestInflightCases(t *testing.T) {
	put := func(sel ...byte) (ops []byte) {
		for _, s := range sel {
			ops = append(ops, 0, s)
		}
		return ops
	}
	del := func(sel ...byte) (ops []byte) {
		for _, s := range sel {
			ops = append(ops, 2, s)
		}
		return ops
	}
	cat := func(parts ...[]byte) (ops []byte) {
		for _, p := range parts {
			ops = append(ops, p...)
		}
		return ops
	}
	// sel 8 homes at slot 0, sel 7 at slot 63, sel 0 at 56; +16 adds 64.
	cases := map[string][]byte{
		"equal homes, delete first":      cat(put(8, 24, 40), del(8)),
		"equal homes, delete middle":     cat(put(8, 24, 40, 9), del(24)),
		"wrap-around, delete at the end": cat(put(7, 23, 39, 8), del(7)),
		"wrap-around, entry stays home":  cat(put(7, 8, 23), del(7)),
		"wrap-around, delete past end":   cat(put(6, 7, 22, 23, 8), del(22, 6)),
		"delete absent":                  cat(put(7, 23), del(39, 8, 7), del(7)),
		"delete in reverse order":        cat(put(0, 1, 2, 16, 17, 7, 23), del(23, 7, 17, 16, 2, 1, 0)),
	}
	// Growth while a probe run crosses the end: 32 entries homed on
	// slots 56..63 and 0..7 fill the table to half, then the 33rd
	// doubles it; deleting them afterwards walks the new layout.
	var grow []byte
	for i := 0; i < 33; i++ {
		grow = append(grow, put(byte(i%16+16*(i/16)))...)
	}
	cases["growth across the end"] = cat(grow, del(7, 0, 23, 15, 8))
	for name, ops := range cases {
		t.Run(name, func(t *testing.T) {
			for _, shift := range []uint{0, 6} {
				inflightOps(t, shift, ops)
			}
		})
	}

	// A delete at the last slot pulls the wrapped entry back: ID 127
	// (home 63, probed on to slot 0) returns to slot 63 once ID 63
	// leaves it.
	f := newInflight(0)
	a, b := &PacketTrace{}, &PacketTrace{}
	f.put(63, a)
	f.put(127, b) // home 63, probes to slot 0
	f.delete(63)
	if f.slots[63].t != b || f.slots[0].t != nil {
		t.Fatalf("backward shift across the end left slot 63=%p slot 0=%p, want %p and empty", f.slots[63].t, f.slots[0].t, b)
	}
}
