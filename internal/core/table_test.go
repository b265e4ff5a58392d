package core

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func newTestTable() *Table {
	return NewTable(
		Column{Name: "waymask", Writable: true, Default: 0xFFFF},
		Column{Name: "priority", Writable: true, Default: 0},
	)
}

func TestTableDefaults(t *testing.T) {
	tb := newTestTable()
	v, err := tb.Get(7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xFFFF {
		t.Fatalf("default waymask = %#x, want 0xFFFF", v)
	}
	if tb.HasRow(7) {
		t.Fatal("Get must not materialize a row")
	}
}

func TestTableSetGetRoundtrip(t *testing.T) {
	tb := newTestTable()
	if err := tb.Set(3, 0, 0x00FF); err != nil {
		t.Fatal(err)
	}
	v, err := tb.Get(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x00FF {
		t.Fatalf("Get = %#x, want 0x00FF", v)
	}
	// Other column of the new row carries its default.
	v, _ = tb.Get(3, 1)
	if v != 0 {
		t.Fatalf("priority default = %d, want 0", v)
	}
}

func TestTableColumnIndex(t *testing.T) {
	tb := newTestTable()
	i, ok := tb.ColumnIndex("priority")
	if !ok || i != 1 {
		t.Fatalf("ColumnIndex(priority) = %d,%v", i, ok)
	}
	if _, ok := tb.ColumnIndex("nope"); ok {
		t.Fatal("found nonexistent column")
	}
}

func TestTableOutOfRange(t *testing.T) {
	tb := newTestTable()
	if _, err := tb.Get(1, 5); err == nil {
		t.Fatal("Get out-of-range column succeeded")
	}
	if err := tb.Set(1, -1, 0); err == nil {
		t.Fatal("Set negative column succeeded")
	}
	if err := tb.SetName(1, "zzz", 0); err == nil {
		t.Fatal("SetName unknown column succeeded")
	}
}

func TestTableDeleteRow(t *testing.T) {
	tb := newTestTable()
	tb.Set(9, 0, 1)
	tb.DeleteRow(9)
	if tb.HasRow(9) {
		t.Fatal("row survived DeleteRow")
	}
	v, _ := tb.Get(9, 0)
	if v != 0xFFFF {
		t.Fatalf("deleted row reads %#x, want default", v)
	}
}

func TestTableRowsSorted(t *testing.T) {
	tb := newTestTable()
	for _, ds := range []DSID{5, 1, 3} {
		tb.EnsureRow(ds)
	}
	rows := tb.Rows()
	want := []DSID{1, 3, 5}
	for i, ds := range rows {
		if ds != want[i] {
			t.Fatalf("Rows() = %v, want %v", rows, want)
		}
	}
}

func TestTableSubClampsAtZero(t *testing.T) {
	tb := newTestTable()
	tb.Add(2, 1, 5)
	tb.Sub(2, 1, 10)
	v, _ := tb.Get(2, 1)
	if v != 0 {
		t.Fatalf("Sub below zero = %d, want clamp to 0", v)
	}
}

func TestTableDuplicateColumnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate column did not panic")
		}
	}()
	NewTable(Column{Name: "a"}, Column{Name: "a"})
}

// Property: Set then Get returns the written value, for any ds/value,
// and never disturbs other rows.
func TestPropertyTableRoundtrip(t *testing.T) {
	f := func(ds1, ds2 uint16, v1, v2 uint64) bool {
		if ds1 == ds2 {
			return true
		}
		tb := newTestTable()
		tb.Set(DSID(ds1), 0, v1)
		tb.Set(DSID(ds2), 0, v2)
		a, _ := tb.Get(DSID(ds1), 0)
		b, _ := tb.Get(DSID(ds2), 0)
		return a == v1 && b == v2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: SortedKeys returns exactly the map's keys, ascending, for
// any key set — the helper sim-clocked packages rely on for
// reproducible map iteration.
func TestPropertySortedKeys(t *testing.T) {
	f := func(keys []uint16) bool {
		m := make(map[DSID]int, len(keys))
		for _, k := range keys {
			m[DSID(k)]++
		}
		got := SortedKeys(m)
		if len(got) != len(m) {
			return false
		}
		for i, k := range got {
			if _, ok := m[k]; !ok {
				return false
			}
			if i > 0 && got[i-1] >= k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Add accumulates exactly.
func TestPropertyTableAdd(t *testing.T) {
	f := func(deltas []uint16) bool {
		tb := newTestTable()
		var sum uint64
		for _, d := range deltas {
			tb.Add(1, 1, uint64(d))
			sum += uint64(d)
		}
		v, _ := tb.Get(1, 1)
		return v == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Rows walk the DS-id index, so they come back in DS-id order however
// the rows were created, and a deleted row drops out.
func TestTableRowsInDSIDOrderAfterDelete(t *testing.T) {
	tb := newTestTable()
	for _, ds := range []DSID{9, 2, 30, 5, 0} {
		tb.EnsureRow(ds)
	}
	tb.DeleteRow(5)
	want := []DSID{0, 2, 9, 30}
	if got := tb.Rows(); !slices.Equal(got, want) {
		t.Fatalf("Rows() = %v, want %v", got, want)
	}
	if got := tb.AppendRows([]DSID{99}); !slices.Equal(got, append([]DSID{99}, want...)) {
		t.Fatalf("AppendRows = %v, want 99 then %v", got, want)
	}
}

// Reading a DS-id without a row — the policy compiler's synthetic DS-ids
// start at 0xF000 — reads the defaults and grows no index.
func TestTableReadGrowsNoIndex(t *testing.T) {
	tb := newTestTable()
	tb.EnsureRow(3)
	p := NewPlane(sim.NewEngine(), "TEST_CP", PlaneTypeCache, tb, newTestTable(), 1)
	const ds DSID = 0xF000
	if v, _ := tb.Get(ds, 0); v != 0xFFFF || tb.HasRow(ds) || p.Param(ds, "waymask") != 0xFFFF ||
		p.ParamAt(ds, 1) != 0 || p.Stat(ds, "priority") != 0 {
		t.Fatal("a DS-id without a row did not read the column defaults")
	}
	if len(tb.rows) != 4 || len(p.Stats().rows) != 0 {
		t.Fatalf("reads grew the indexes to %d and %d rows, want 4 and 0", len(tb.rows), len(p.Stats().rows))
	}
}

// A deleted row that is created again starts from the column defaults,
// not from the values it held before.
func TestTableRecreatedRowReadsDefaults(t *testing.T) {
	tb := newTestTable()
	tb.Set(4, 0, 0x00FF)
	tb.Add(4, 1, 7)
	tb.DeleteRow(4)
	tb.Add(4, 1, 1)
	if v, _ := tb.Get(4, 0); v != 0xFFFF {
		t.Fatalf("re-created waymask = %#x, want the default 0xFFFF", v)
	}
	if v, _ := tb.Get(4, 1); v != 1 {
		t.Fatalf("re-created priority = %d, want 1", v)
	}
}

// Generation advances when a row is created or deleted and on nothing
// else: the telemetry scraper reuses its row list while it holds.
func TestTableGenerationTracksRowSet(t *testing.T) {
	tb := newTestTable()
	step := func(what string, f func(), moves bool) {
		t.Helper()
		before := tb.Generation()
		f()
		if moved := tb.Generation() != before; moved != moves {
			t.Fatalf("%s: generation moved %v, want %v", what, moved, moves)
		}
	}
	step("create by Set", func() { tb.Set(2, 0, 1) }, true)
	step("write an existing row", func() { tb.Set(2, 1, 5); tb.Add(2, 1, 1); tb.Sub(2, 1, 9) }, false)
	step("EnsureRow on an existing row", func() { tb.EnsureRow(2) }, false)
	step("read rows and absent DS-ids", func() { tb.Get(7, 0); tb.HasRow(7); tb.Rows() }, false)
	step("create by Add", func() { tb.Add(7, 1, 1) }, true)
	step("delete", func() { tb.DeleteRow(2) }, true)
	step("delete an absent row", func() { tb.DeleteRow(2); tb.DeleteRow(1000) }, false)
}
