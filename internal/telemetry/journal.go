// Package telemetry is PARD's visibility layer: a deterministic
// time-series registry that scrapes every control-plane statistics
// column (and registered gauges) on a sim-tick interval into
// fixed-capacity rings, plus a bounded audit journal of everything the
// control plane itself did — trigger firings and suppressions, policy
// loads, schedule installs, parameter writes, LDom creation and
// teardown, and firmware errors. The journal is the firmware's only
// event record: /log/triggers.log renders it. The data plane got a
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
	"repro/internal/metric"
	"repro/internal/sim"
)

// Event kinds, the journal's taxonomy. One control-plane verb each.
const (
	KindTriggerInstall  = "trigger_install"
	KindTriggerFired    = "trigger_fired"
	KindTriggerSuppress = "trigger_suppressed"
	KindPolicyLoad      = "policy_load"
	KindPolicyReload    = "policy_reload"
	KindPolicyUnload    = "policy_unload"
	KindSchedInstall    = "sched_install"
	KindSchedRestore    = "sched_restore"
	KindParamWrite      = "param_write"
	KindLDomCreate      = "ldom_create"
	KindLDomDestroy     = "ldom_destroy"
	KindError           = "error"
)

// Event is one audit-journal entry. The numeric Old/New pair is
// kind-specific: for param_write it is the displaced and stored value;
// for trigger_fired and trigger_suppressed New is the statistic's value
// the trigger saw, and a suppression's Old is ticks since the binding
// last ran while its Detail names what suppressed it (the cooldown
// window or the rate limit). An error event carries its message in
// Detail.
type Event struct {
	Seq    uint64    `json:"seq"`
	When   sim.Tick  `json:"when"`
	Kind   string    `json:"kind"`
	Origin string    `json:"origin"` // "console", "pardctl", "policy:<set>/<rule>", "firmware"
	Plane  string    `json:"plane,omitempty"`
	DS     core.DSID `json:"ds"`
	Name   string    `json:"name,omitempty"` // parameter / stat / policy-set / algorithm / LDom name
	Old    uint64    `json:"old,omitempty"`
	New    uint64    `json:"new,omitempty"`
	Detail string    `json:"detail,omitempty"`
}

// Journal is a bounded ring of control-plane events. A nil *Journal is
// a valid sink that drops everything, so hooks wire unconditionally.
type Journal struct {
	eng     *sim.Engine
	ring    *metric.Ring[Event]
	nextSeq uint64
}

// NewJournal returns a journal holding at most capacity events,
// stamping When from the engine clock at record time.
func NewJournal(eng *sim.Engine, capacity int) *Journal {
	return &Journal{eng: eng, ring: metric.NewRing[Event](capacity)}
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
	j.ring.Push(ev)
}

// Len returns the number of retained events.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	return j.ring.Len()
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
	return j.ring.Dropped()
}

// At returns the i-th retained event, oldest first. It panics when i
// is out of [0, Len()).
func (j *Journal) At(i int) Event { return j.ring.At(i) }

// Since appends every retained event with Seq >= seq onto buf, oldest
// first, and returns the extended slice. Events older than seq that
// were displaced by the bound are simply absent — compare the first
// returned Seq against the request to detect truncation.
func (j *Journal) Since(seq uint64, buf []Event) []Event {
	if j == nil {
		return buf
	}
	for i := 0; i < j.ring.Len(); i++ {
		if ev := j.ring.At(i); ev.Seq >= seq {
			buf = append(buf, ev)
		}
	}
	return buf
}
