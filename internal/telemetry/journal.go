// Package telemetry is PARD's visibility layer: a deterministic
// time-series registry that scrapes every control-plane statistics
// column (and registered gauges) on a sim-tick interval into
// fixed-capacity rings, plus a bounded audit journal of everything the
// control plane itself did — trigger firings and suppressions, policy
// loads, schedule installs, parameter writes. The data plane got a
// flight recorder in PR 3 (internal/trace); this package is the
// control-plane twin, and the export surfaces (Prometheus text format,
// JSON dumps, Perfetto counter tracks) hang off both.
//
// Nothing here mutates simulation state: scraping reads statistics
// tables and journal recording appends to telemetry-private buffers,
// so pard.StateDigest is byte-identical with telemetry on or off.
package telemetry

import (
	"repro/internal/core"
	"repro/internal/sim"
)

// Event kinds, the journal's taxonomy. One control-plane verb each.
const (
	KindTriggerFired    = "trigger_fired"
	KindTriggerSuppress = "trigger_suppressed"
	KindPolicyLoad      = "policy_load"
	KindPolicyReload    = "policy_reload"
	KindPolicyUnload    = "policy_unload"
	KindSchedInstall    = "sched_install"
	KindSchedRestore    = "sched_restore"
	KindParamWrite      = "param_write"
)

// Event is one audit-journal entry. The numeric Old/New pair is
// kind-specific: for param_write it is the displaced and stored value;
// for trigger_suppressed Old is ticks since the binding last ran and
// New is the cooldown window that suppressed it.
type Event struct {
	Seq    uint64    `json:"seq"`
	When   sim.Tick  `json:"when"`
	Kind   string    `json:"kind"`
	Origin string    `json:"origin"` // "console", "pardctl", "policy:<set>/<rule>", "firmware"
	Plane  string    `json:"plane,omitempty"`
	DS     core.DSID `json:"ds"`
	Name   string    `json:"name,omitempty"` // parameter / stat / policy-set / algorithm name
	Old    uint64    `json:"old,omitempty"`
	New    uint64    `json:"new,omitempty"`
	Detail string    `json:"detail,omitempty"`
}

// Journal is a bounded ring of control-plane events. A nil *Journal is
// a valid sink that drops everything, so hooks wire unconditionally.
type Journal struct {
	eng     *sim.Engine
	buf     []Event
	head    int // index of the oldest event
	n       int
	nextSeq uint64
	dropped uint64
}

// NewJournal returns a journal holding at most capacity events,
// stamping When from the engine clock at record time.
func NewJournal(eng *sim.Engine, capacity int) *Journal {
	if capacity < 1 {
		capacity = 1
	}
	return &Journal{eng: eng, buf: make([]Event, capacity)}
}

// Record appends one event, stamping Seq and When. When full the
// oldest event is displaced and counted in Dropped.
func (j *Journal) Record(ev Event) {
	if j == nil {
		return
	}
	ev.Seq = j.nextSeq
	j.nextSeq++
	ev.When = j.eng.Now()
	if j.n < len(j.buf) {
		i := j.head + j.n
		if i >= len(j.buf) {
			i -= len(j.buf)
		}
		j.buf[i] = ev
		j.n++
		return
	}
	j.buf[j.head] = ev
	j.head++
	if j.head == len(j.buf) {
		j.head = 0
	}
	j.dropped++
}

// Len returns the number of retained events.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	return j.n
}

// NextSeq returns the sequence number the next event will get (equal to
// the total number of events ever recorded).
func (j *Journal) NextSeq() uint64 {
	if j == nil {
		return 0
	}
	return j.nextSeq
}

// Dropped returns how many events have been displaced by the bound.
func (j *Journal) Dropped() uint64 {
	if j == nil {
		return 0
	}
	return j.dropped
}

// At returns the i-th retained event, oldest first.
func (j *Journal) At(i int) Event {
	if i < 0 || i >= j.n {
		panic("telemetry: journal index out of range")
	}
	k := j.head + i
	if k >= len(j.buf) {
		k -= len(j.buf)
	}
	return j.buf[k]
}

// Since appends every retained event with Seq >= seq onto buf, oldest
// first, and returns the extended slice. Events older than seq that
// were displaced by the bound are simply absent — compare the first
// returned Seq against the request to detect truncation.
func (j *Journal) Since(seq uint64, buf []Event) []Event {
	if j == nil {
		return buf
	}
	for i := 0; i < j.n; i++ {
		ev := j.At(i)
		if ev.Seq >= seq {
			buf = append(buf, ev)
		}
	}
	return buf
}
