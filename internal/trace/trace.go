// Package trace provides ICN observability: a Probe wraps any packet
// target and counts packets and bytes per (kind, DS-id). Probes are the
// debugging counterpart of control-plane statistics — they see every
// packet, not just the accounted summaries — and are used by tests and
// by pardctl's trace command.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
)

// numKinds sizes the per-DS-id counter rows (core.Kind is a small
// contiguous enum ending at KindInterrupt).
const numKinds = int(core.KindInterrupt) + 1

// probeRow holds one DS-id's packet and byte counters, indexed by kind.
type probeRow struct {
	pkts, bytes [numKinds]uint64
}

// Probe is a transparent core.Target wrapper.
type Probe struct {
	Name string

	next core.Target

	// rows is the counter table, indexed by DS-id. It grows on the
	// first sight of a DS-id, so the steady state never allocates.
	rows []probeRow

	total uint64
}

// NewProbe wraps next.
func NewProbe(name string, next core.Target) *Probe {
	return &Probe{Name: name, next: next}
}

// Request counts the packet and forwards it unchanged.
func (p *Probe) Request(pkt *core.Packet) {
	if int(pkt.DSID) >= len(p.rows) {
		p.grow(pkt.DSID)
	}
	row := &p.rows[pkt.DSID]
	row.pkts[pkt.Kind]++
	row.bytes[pkt.Kind] += uint64(pkt.Size)
	p.total++
	p.next.Request(pkt)
}

// grow extends the counter table to cover ds.
func (p *Probe) grow(ds core.DSID) {
	//pardlint:ignore hotalloc first sight of a DS-id: the table grows once per new DS-id, bounded by LDom count
	p.rows = append(p.rows, make([]probeRow, int(ds)+1-len(p.rows))...)
}

// row returns ds's counters, or nil before the first sight of ds.
func (p *Probe) row(ds core.DSID) *probeRow {
	if int(ds) >= len(p.rows) {
		return nil
	}
	return &p.rows[ds]
}

// Total returns the number of packets observed.
func (p *Probe) Total() uint64 { return p.total }

// Count returns the packet count for one (kind, DS-id).
func (p *Probe) Count(kind core.Kind, ds core.DSID) uint64 {
	if r := p.row(ds); r != nil {
		return r.pkts[kind]
	}
	return 0
}

// Bytes returns accumulated bytes for one (kind, DS-id).
func (p *Probe) Bytes(kind core.Kind, ds core.DSID) uint64 {
	if r := p.row(ds); r != nil {
		return r.bytes[kind]
	}
	return 0
}

// CountByDSID sums packet counts across kinds for ds.
func (p *Probe) CountByDSID(ds core.DSID) uint64 {
	var n uint64
	if r := p.row(ds); r != nil {
		for _, c := range r.pkts {
			n += c
		}
	}
	return n
}

// Reset clears the counters. The counter table keeps its rows
// (zeroed), so the hot path stays allocation-free.
func (p *Probe) Reset() {
	clear(p.rows)
	p.total = 0
}

// Summary renders the counter table sorted by count (then DS-id, then
// kind), for reports.
func (p *Probe) Summary() string {
	type line struct {
		kind core.Kind
		ds   core.DSID
		n, b uint64
	}
	var lines []line
	for ds := range p.rows {
		r := &p.rows[ds]
		for kind, n := range r.pkts {
			if n > 0 {
				lines = append(lines, line{core.Kind(kind), core.DSID(ds), n, r.bytes[kind]})
			}
		}
	}
	sort.Slice(lines, func(i, j int) bool {
		if lines[i].n != lines[j].n {
			return lines[i].n > lines[j].n
		}
		if lines[i].ds != lines[j].ds {
			return lines[i].ds < lines[j].ds
		}
		return lines[i].kind < lines[j].kind
	})
	var b strings.Builder
	fmt.Fprintf(&b, "probe %s: %d packets\n", p.Name, p.total)
	for _, l := range lines {
		fmt.Fprintf(&b, "  %-10v %-6v %10d pkts %12d bytes\n", l.kind, l.ds, l.n, l.b)
	}
	return b.String()
}
