package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// Column describes one field of a control-plane table. Parameter columns
// are writable by the firmware; statistics columns are hardware-updated
// and read-only from the programming interface.
type Column struct {
	Name     string
	Writable bool
	// Default is the value a row starts with (and the value reported
	// for DS-ids that have no row yet). E.g. the LLC way mask defaults
	// to "all ways".
	Default uint64
	// Window is how the plane's sampler publishes a statistics column
	// (see Plane.Observe). Scale multiplies a WindowMean column's mean:
	// 1000 for a ratio in 0.1% units, 10 for a mean in 0.1 units.
	Window Window
	Scale  uint64
}

// Window selects how the plane's sampler treats a statistics column.
type Window uint8

const (
	// Counter columns are written by their component; the sampler
	// leaves them alone. It is the zero value.
	Counter Window = iota
	// WindowMean publishes Scale·Σnum/Σden at the end of each window
	// that saw an observation; an empty window keeps the last value.
	WindowMean
	// WindowMBps sums bytes over each window and publishes them as MB/s
	// at the end of every window, zero included.
	WindowMBps
)

// Table is a DS-id indexed control-plane table (parameter or statistics
// table in the paper's basic control-plane structure, Figure 2).
type Table struct {
	cols   []Column
	byName map[string]int
	rows   map[DSID][]uint64
	// gen counts row-set changes (EnsureRow creating, DeleteRow removing)
	// so the telemetry scraper can keep a cached sorted row list and only
	// rebuild it when an LDom actually came or went.
	gen uint64
}

// NewTable builds a table with the given column layout.
func NewTable(cols ...Column) *Table {
	t := &Table{
		cols:   append([]Column(nil), cols...),
		byName: make(map[string]int, len(cols)),
		rows:   make(map[DSID][]uint64),
	}
	for i, c := range cols {
		if _, dup := t.byName[c.Name]; dup {
			panic("core: duplicate column " + c.Name)
		}
		t.byName[c.Name] = i
	}
	return t
}

// Columns returns the column layout.
func (t *Table) Columns() []Column { return t.cols }

// ColumnIndex resolves a column name; ok is false if absent.
func (t *Table) ColumnIndex(name string) (int, bool) {
	i, ok := t.byName[name]
	return i, ok
}

// NumColumns returns the number of columns.
func (t *Table) NumColumns() int { return len(t.cols) }

// HasRow reports whether ds has an explicit row.
func (t *Table) HasRow(ds DSID) bool {
	_, ok := t.rows[ds]
	return ok
}

// EnsureRow creates ds's row (with column defaults) if missing.
func (t *Table) EnsureRow(ds DSID) {
	if _, ok := t.rows[ds]; ok {
		return
	}
	//pardlint:ignore hotalloc first sight of a DS-id: one row per LDom lifetime, not per request
	row := make([]uint64, len(t.cols))
	for i, c := range t.cols {
		row[i] = c.Default
	}
	t.rows[ds] = row
	t.gen++
}

// DeleteRow removes ds's row (LDom teardown).
func (t *Table) DeleteRow(ds DSID) {
	if _, ok := t.rows[ds]; !ok {
		return
	}
	delete(t.rows, ds)
	t.gen++
}

// Generation returns a counter that advances on every row-set change.
// Equal generations guarantee an identical DS-id set, so a cached
// AppendRows result is still valid.
func (t *Table) Generation() uint64 { return t.gen }

// AppendRows appends the DS-ids that have explicit rows, sorted, onto
// buf and returns the extended slice. Callers that reuse buf across
// calls (the telemetry scraper) pay no allocation once it has grown.
func (t *Table) AppendRows(buf []DSID) []DSID {
	start := len(buf)
	//pardlint:ignore determinism the DS-ids are collected, then sorted
	for ds := range t.rows {
		//pardlint:ignore hotalloc grows the caller's scratch only on first sight of a larger row set
		buf = append(buf, ds)
	}
	slices.Sort(buf[start:])
	return buf
}

// Rows returns the DS-ids that have explicit rows, sorted.
func (t *Table) Rows() []DSID {
	out := make([]DSID, 0, len(t.rows))
	//pardlint:ignore determinism the DS-ids are collected, then sorted
	for ds := range t.rows {
		out = append(out, ds)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Get returns the value at (ds, col). A DS-id with no explicit row reads
// the column default, mirroring the paper's "default" parameter row.
func (t *Table) Get(ds DSID, col int) (uint64, error) {
	if col < 0 || col >= len(t.cols) {
		//pardlint:ignore hotalloc error path for an unregistered column: a programming bug, never taken in steady state
		return 0, fmt.Errorf("core: column %d out of range (table has %d)", col, len(t.cols))
	}
	if row, ok := t.rows[ds]; ok {
		return row[col], nil
	}
	return t.cols[col].Default, nil
}

// GetName is Get by column name.
func (t *Table) GetName(ds DSID, name string) (uint64, error) {
	i, ok := t.byName[name]
	if !ok {
		//pardlint:ignore hotalloc error path for an unregistered column: a programming bug, never taken in steady state
		return 0, fmt.Errorf("core: no column %q", name)
	}
	return t.Get(ds, i)
}

// Set stores a value at (ds, col), creating the row if needed.
func (t *Table) Set(ds DSID, col int, v uint64) error {
	if col < 0 || col >= len(t.cols) {
		//pardlint:ignore hotalloc error path for an unregistered column: a programming bug, never taken in steady state
		return fmt.Errorf("core: column %d out of range (table has %d)", col, len(t.cols))
	}
	t.EnsureRow(ds)
	t.rows[ds][col] = v
	return nil
}

// SetName is Set by column name.
func (t *Table) SetName(ds DSID, name string, v uint64) error {
	i, ok := t.byName[name]
	if !ok {
		//pardlint:ignore hotalloc error path for an unregistered column: a programming bug, never taken in steady state
		return fmt.Errorf("core: no column %q", name)
	}
	return t.Set(ds, i, v)
}

// SortedKeys returns m's keys in ascending order. Components iterate
// DS-id (or MAC, slot...) keyed maps through it so that statistics
// publication and scheduling decisions never depend on Go's randomized
// map iteration order — the bit-reproducibility contract behind
// EXPERIMENTS.md (and the determinism invariant pardlint enforces).
func SortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	//pardlint:ignore determinism the keys are collected, then sorted
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// Add increments (ds, col) by delta, creating the row if needed. It is
// the hot-path helper for hardware statistics updates.
func (t *Table) Add(ds DSID, col int, delta uint64) {
	t.EnsureRow(ds)
	t.rows[ds][col] += delta
}

// Sub decrements (ds, col) by delta, clamping at zero (occupancy
// counters must never wrap).
func (t *Table) Sub(ds DSID, col int, delta uint64) {
	t.EnsureRow(ds)
	row := t.rows[ds]
	if row[col] < delta {
		row[col] = 0
		return
	}
	row[col] -= delta
}
