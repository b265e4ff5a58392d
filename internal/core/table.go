package core

import (
	"cmp"
	"fmt"
	"slices"
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
// table in the paper's basic control-plane structure, Figure 2). Like
// the hardware's, it is an array indexed by DS-id: rows[ds] is ds's row,
// nil while ds has none. The index grows only when a row is created, to
// the largest DS-id that has one; reading an absent DS-id never grows
// it. Components address columns by index on the data path (see
// Plane.ParamAt); the names are for the programming interface.
type Table struct {
	cols   []Column
	byName map[string]int
	rows   [][]uint64
	// gen counts row-set changes (a row created or deleted) so the
	// telemetry scraper can keep a cached row list and only rebuild it
	// when an LDom actually came or went.
	gen uint64
}

// NewTable builds a table with the given column layout.
func NewTable(cols ...Column) *Table {
	t := &Table{
		cols:   append([]Column(nil), cols...),
		byName: make(map[string]int, len(cols)),
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

// row returns ds's row, or nil when ds has none.
func (t *Table) row(ds DSID) []uint64 { return At(t.rows, ds) }

// ensure returns ds's row, creating it with column defaults if missing.
func (t *Table) ensure(ds DSID) []uint64 {
	if row := t.row(ds); row != nil {
		return row
	}
	return t.create(ds)
}

// create makes ds's row with column defaults, growing the index to ds.
func (t *Table) create(ds DSID) []uint64 {
	t.rows = GrowTo(t.rows, ds)
	//pardlint:ignore hotalloc first sight of a DS-id: one row per LDom lifetime, not per request
	row := make([]uint64, len(t.cols))
	for i, c := range t.cols {
		row[i] = c.Default
	}
	t.rows[ds] = row
	t.gen++
	return row
}

// value reads (ds, col), or the column default when ds has no row.
func (t *Table) value(ds DSID, col int) uint64 {
	if row := t.row(ds); row != nil {
		return row[col]
	}
	return t.cols[col].Default
}

// HasRow reports whether ds has an explicit row.
func (t *Table) HasRow(ds DSID) bool { return t.row(ds) != nil }

// EnsureRow creates ds's row (with column defaults) if missing.
func (t *Table) EnsureRow(ds DSID) { t.ensure(ds) }

// DeleteRow removes ds's row (LDom teardown).
func (t *Table) DeleteRow(ds DSID) {
	if t.row(ds) == nil {
		return
	}
	t.rows[ds] = nil
	t.gen++
}

// Generation returns a counter that advances on every row-set change.
// Equal generations guarantee an identical DS-id set, so a cached
// AppendRows result is still valid.
func (t *Table) Generation() uint64 { return t.gen }

// AppendRows appends the DS-ids that have explicit rows, in DS-id
// order, onto buf and returns the extended slice. Callers that reuse
// buf across calls (the telemetry scraper) pay no allocation once it
// has grown.
func (t *Table) AppendRows(buf []DSID) []DSID {
	for ds, row := range t.rows {
		if row != nil {
			//pardlint:ignore hotalloc grows the caller's scratch only on first sight of a larger row set
			buf = append(buf, DSID(ds))
		}
	}
	return buf
}

// Rows returns the DS-ids that have explicit rows, in DS-id order.
func (t *Table) Rows() []DSID { return t.AppendRows(nil) }

// checkCol reports an out-of-range column index.
func (t *Table) checkCol(col int) error {
	if col < 0 || col >= len(t.cols) {
		//pardlint:ignore hotalloc error path for a column index no table has (a trigger's MMIO-written stat column): never taken in steady state
		return fmt.Errorf("core: column %d out of range (table has %d)", col, len(t.cols))
	}
	return nil
}

// Get returns the value at (ds, col). A DS-id with no explicit row reads
// the column default, mirroring the paper's "default" parameter row.
func (t *Table) Get(ds DSID, col int) (uint64, error) {
	if err := t.checkCol(col); err != nil {
		return 0, err
	}
	return t.value(ds, col), nil
}

// Set stores a value at (ds, col), creating the row if needed.
func (t *Table) Set(ds DSID, col int, v uint64) error {
	if err := t.checkCol(col); err != nil {
		return err
	}
	t.ensure(ds)[col] = v
	return nil
}

// SetName is Set by column name.
func (t *Table) SetName(ds DSID, name string, v uint64) error {
	i, ok := t.byName[name]
	if !ok {
		return fmt.Errorf("core: no column %q", name)
	}
	return t.Set(ds, i, v)
}

// At returns s[ds], or the zero value when ds lies past the end of s:
// the read side of a slice indexed by DS-id, which never grows it.
func At[T any](s []T, ds DSID) T {
	if int(ds) < len(s) {
		return s[ds]
	}
	var zero T
	return zero
}

// GrowTo extends s with zero values, if needed, until ds indexes it.
// Per-DS-id state lives in slices grown through it, so an index reaches
// only the largest DS-id written, never the whole 16-bit space.
func GrowTo[T any](s []T, ds DSID) []T {
	if n := int(ds) + 1; n > len(s) {
		//pardlint:ignore hotalloc first write for a larger DS-id: at most once per DS-id, not per request
		s = append(s, make([]T, n-len(s))...)
	}
	return s
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
func (t *Table) Add(ds DSID, col int, delta uint64) { t.ensure(ds)[col] += delta }

// Sub decrements (ds, col) by delta, clamping at zero (occupancy
// counters must never wrap).
func (t *Table) Sub(ds DSID, col int, delta uint64) {
	row := t.ensure(ds)
	row[col] -= min(row[col], delta)
}
