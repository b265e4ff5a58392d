package core

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/sim"
)

// PlaneType bytes, matching the paper's device-file "type" node:
// cache ('C'), memory ('M'), I/O bridge ('B'), plus IDE ('I') and
// NIC ('N') for the additional device control planes, and switch ('S')
// for the cluster fabric's ICN switches (paper §8: "integrate PARD and
// SDN so that DS-id can be propagated in a data center wide").
const (
	PlaneTypeCache  byte = 'C'
	PlaneTypeMemory byte = 'M'
	PlaneTypeBridge byte = 'B'
	PlaneTypeIDE    byte = 'I'
	PlaneTypeNIC    byte = 'N'
	PlaneTypeSwitch byte = 'S'
)

// Notification is the payload carried on a control plane's interrupt
// line when a trigger fires. The PRM firmware uses it to locate and run
// the bound action.
type Notification struct {
	Plane  *Plane
	Slot   int    // trigger table slot that fired
	DSID   DSID   // DS-id the trigger watched
	Stat   string // statistics column name
	Value  uint64 // observed value at fire time
	Action int    // action id bound to the trigger
	When   sim.Tick
}

// InterruptLine delivers trigger notifications to the PRM.
type InterruptLine func(n Notification)

// Plane is PARD's basic programmable control-plane structure (paper §3,
// mechanism 2): a parameter table, a statistics table and a trigger
// table, all DS-id indexed, plus a programming interface (see mmio.go)
// and an interrupt line to the platform resource manager.
//
// Hardware components embed a Plane and consult the parameter table on
// the data path (way masks, priorities, address maps, quotas) while
// updating the statistics table off the critical path.
type Plane struct {
	ident  string
	typ    byte
	engine *sim.Engine

	params   *Table
	stats    *Table
	triggers []Trigger

	intr InterruptLine

	// Scheduler plane: the owning component declares the algorithms it
	// implements, so operators (and .pard `schedule` directives) can
	// swap the algorithm in force at run time.
	schedAlgos   []string
	schedInstall func(algo string)
	schedAlgo    string

	// TriggersFired counts interrupts raised, for tests and reports.
	TriggersFired uint64

	// paramObs, when set, sees every sanctioned parameter write — both
	// the Go-level SetParam API and CPA register-file writes — with the
	// displaced value. The telemetry journal hangs off it.
	paramObs ParamObserver

	// The statistics window: win[ds] holds ds's accumulators, one per
	// statistics column, or nil while ds has observed nothing since its
	// row was last deleted. interval is the sampler's period, 0 if none.
	win      [][]accum
	interval sim.Tick
}

// accum sums one statistics column's observations for one DS-id over
// the current sampling window.
type accum struct{ num, den uint64 }

// DefaultSampleInterval is the statistics window of a plane whose
// owner asks for none.
const DefaultSampleInterval = 100 * sim.Microsecond

// ParamObserver receives sanctioned parameter writes for auditing.
type ParamObserver func(ds DSID, name string, old, new uint64)

// NewPlane constructs a control plane. ident is the 12-byte identity
// string exposed through the IDENT registers (e.g. "CACHE_CP"),
// triggerSlots the trigger-table capacity (the paper's RTL uses 64).
func NewPlane(e *sim.Engine, ident string, typ byte, params, stats *Table, triggerSlots int) *Plane {
	if len(ident) > 12 {
		panic("core: plane ident exceeds 12 bytes: " + ident)
	}
	return &Plane{
		ident:    ident,
		typ:      typ,
		engine:   e,
		params:   params,
		stats:    stats,
		triggers: make([]Trigger, triggerSlots),
	}
}

// Ident returns the plane identity string.
func (p *Plane) Ident() string { return p.ident }

// Type returns the plane type byte.
func (p *Plane) Type() byte { return p.typ }

// Params returns the parameter table.
func (p *Plane) Params() *Table { return p.params }

// Stats returns the statistics table.
func (p *Plane) Stats() *Table { return p.stats }

// TriggerSlots returns the trigger-table capacity.
func (p *Plane) TriggerSlots() int { return len(p.triggers) }

// Trigger returns a pointer to the trigger in the given slot.
func (p *Plane) Trigger(slot int) (*Trigger, error) {
	if slot < 0 || slot >= len(p.triggers) {
		return nil, fmt.Errorf("core: trigger slot %d out of range (%d slots)", slot, len(p.triggers))
	}
	return &p.triggers[slot], nil
}

// SetInterrupt wires the interrupt line to the PRM.
func (p *Plane) SetInterrupt(fn InterruptLine) { p.intr = fn }

// SetParamObserver registers the audit hook for parameter writes.
func (p *Plane) SetParamObserver(fn ParamObserver) { p.paramObs = fn }

// ObserveParamWrite reports one sanctioned parameter write to the
// registered observer. The CPA register file calls it after a
// successful SelParameter write; SetParam calls it internally.
func (p *Plane) ObserveParamWrite(ds DSID, name string, old, new uint64) {
	if p.paramObs != nil {
		p.paramObs(ds, name, old, new)
	}
}

// SetSchedulerHook registers the owning component's scheduling plane.
// algos lists the algorithms the component implements, the power-on
// default first; it is the catalogue the .pard compiler checks
// `schedule` declarations against. install switches the component onto
// an algorithm from algos, and may be nil when algos has one entry.
// Components without programmable scheduling simply never call this.
func (p *Plane) SetSchedulerHook(algos []string, install func(algo string)) {
	p.schedAlgos = algos
	p.schedInstall = install
	p.schedAlgo = algos[0]
}

// HasScheduler reports whether the component registered a scheduling
// hook.
func (p *Plane) HasScheduler() bool { return len(p.schedAlgos) > 0 }

// SchedulerAlgos returns the algorithms the component implements, the
// power-on default first (nil without a programmable scheduler).
func (p *Plane) SchedulerAlgos() []string { return p.schedAlgos }

// InstallScheduler switches the owning component to the named
// scheduling algorithm — the sanctioned control path behind the
// /sys/cpa/cpaN/scheduler node and the .pard `schedule` directive, and
// the one place that validates algorithm names.
func (p *Plane) InstallScheduler(algo string) error {
	if len(p.schedAlgos) == 0 {
		return fmt.Errorf("core: %s has no programmable scheduler", p.ident)
	}
	if !slices.Contains(p.schedAlgos, algo) {
		return fmt.Errorf("core: %s has no scheduling algorithm %q (have %s)",
			p.ident, algo, strings.Join(p.schedAlgos, ", "))
	}
	if algo != p.schedAlgo && p.schedInstall != nil {
		p.schedInstall(algo)
	}
	p.schedAlgo = algo
	return nil
}

// SchedulerAlgo returns the algorithm currently in force, or "" when
// the component has no programmable scheduler.
func (p *Plane) SchedulerAlgo() string { return p.schedAlgo }

// CreateRow allocates parameter and statistics rows for a new LDom's
// DS-id, with column defaults.
func (p *Plane) CreateRow(ds DSID) {
	p.params.EnsureRow(ds)
	p.stats.EnsureRow(ds)
}

// DeleteRow tears down an LDom's rows, its statistics window and its
// triggers.
func (p *Plane) DeleteRow(ds DSID) {
	p.params.DeleteRow(ds)
	p.stats.DeleteRow(ds)
	if int(ds) < len(p.win) {
		p.win[ds] = nil
	}
	for i := range p.triggers {
		if p.triggers[i].DSID == ds {
			p.triggers[i] = Trigger{}
		}
	}
}

// Param reads a parameter on the data path. Unknown columns panic:
// component code referencing a missing column is a programming error.
func (p *Plane) Param(ds DSID, name string) uint64 {
	v, err := p.params.GetName(ds, name)
	if err != nil {
		panic("core: " + p.ident + ": " + err.Error())
	}
	return v
}

// SetParam stores a parameter value through the plane API. It is the
// sanctioned path for code that configures a plane without going
// through a CPA register file (device-side binding state, experiment
// setup); read-only columns and unknown names panic, mirroring the CPA
// write checks. Hardware data paths read parameters with Param and
// must never call this — pardlint's planeaccess pass enforces that
// resource packages cannot reach the tables directly at all.
func (p *Plane) SetParam(ds DSID, name string, v uint64) {
	i, ok := p.params.ColumnIndex(name)
	if !ok {
		panic("core: " + p.ident + ": no parameter column " + name)
	}
	if !p.params.Columns()[i].Writable {
		panic("core: " + p.ident + ": parameter " + name + " is read-only")
	}
	old, _ := p.params.Get(ds, i)
	if err := p.params.Set(ds, i, v); err != nil {
		panic("core: " + p.ident + ": " + err.Error())
	}
	p.ObserveParamWrite(ds, name, old, v)
}

// SetStat stores a statistics value.
func (p *Plane) SetStat(ds DSID, name string, v uint64) {
	if err := p.stats.SetName(ds, name, v); err != nil {
		panic("core: " + p.ident + ": " + err.Error())
	}
}

// AddStat increments a statistics counter.
func (p *Plane) AddStat(ds DSID, name string, delta uint64) {
	i, ok := p.stats.ColumnIndex(name)
	if !ok {
		panic("core: " + p.ident + ": no stat column " + name)
	}
	p.stats.Add(ds, i, delta)
}

// SubStat decrements a statistics counter, clamped at zero.
func (p *Plane) SubStat(ds DSID, name string, delta uint64) {
	i, ok := p.stats.ColumnIndex(name)
	if !ok {
		panic("core: " + p.ident + ": no stat column " + name)
	}
	p.stats.Sub(ds, i, delta)
}

// Stat reads a statistics value.
func (p *Plane) Stat(ds DSID, name string) uint64 {
	v, err := p.stats.GetName(ds, name)
	if err != nil {
		panic("core: " + p.ident + ": " + err.Error())
	}
	return v
}

// Observe adds one observation to ds's current window of the windowed
// statistics column name: num/den to a WindowMean column, num bytes to
// a WindowMBps column (den unused). It is the data-path half of the
// sampler that Sample starts. Counter and unknown columns panic.
func (p *Plane) Observe(ds DSID, name string, num, den uint64) {
	i, ok := p.stats.ColumnIndex(name)
	if !ok || p.stats.cols[i].Window == Counter {
		panic("core: " + p.ident + ": no windowed stat column " + name)
	}
	for int(ds) >= len(p.win) {
		p.win = append(p.win, nil)
	}
	if p.win[ds] == nil {
		//pardlint:ignore hotalloc first observation of a DS-id, or its first since DeleteRow: one window per LDom lifetime, not per request
		p.win[ds] = make([]accum, len(p.stats.cols))
	}
	a := &p.win[ds][i]
	a.num += num
	a.den += den
}

// Sample starts the plane's sampler (DefaultSampleInterval when
// interval is 0). At the end of every window it publishes each windowed
// statistics column in DS-id order, then evaluates the trigger table,
// off the access critical path (paper §4.2 step 5). A plane without a
// sampler never evaluates its triggers on its own.
func (p *Plane) Sample(interval sim.Tick) {
	if interval == 0 {
		interval = DefaultSampleInterval
	}
	p.interval = interval
	p.engine.Schedule(interval, p.sample)
}

// SampleInterval returns the sampler's period, or 0 when the plane
// runs no sampler.
func (p *Plane) SampleInterval() sim.Tick { return p.interval }

// sample closes the statistics window, evaluates the trigger table and
// reschedules itself.
func (p *Plane) sample() {
	winSec := float64(p.interval) / float64(sim.Second)
	for ds, row := range p.win {
		for i := range row {
			a, c := &row[i], &p.stats.cols[i]
			switch {
			case c.Window == WindowMean && a.den > 0:
				p.SetStat(DSID(ds), c.Name, c.Scale*a.num/a.den)
			case c.Window == WindowMBps:
				p.SetStat(DSID(ds), c.Name, uint64(float64(a.num)/1e6/winSec))
			}
			*a = accum{}
		}
	}
	p.evaluateAll()
	p.engine.Schedule(p.interval, p.sample)
}

// Evaluate scans the trigger table for the given DS-id against current
// statistics and raises interrupts for newly-true conditions. The
// sampler runs it for every row each window; a component calls it only
// for an event that cannot wait for the window (a bounds violation).
func (p *Plane) Evaluate(ds DSID) {
	for slot := range p.triggers {
		tr := &p.triggers[slot]
		if !tr.Enabled || tr.DSID != ds {
			continue
		}
		val, err := p.stats.Get(ds, tr.StatCol)
		if err != nil {
			continue
		}
		cond := tr.Op.Eval(val, tr.Value)
		if !cond {
			tr.fired = false // re-arm
			tr.trueRun = 0
			continue
		}
		tr.trueRun++
		if tr.Hysteresis > 1 && tr.trueRun < tr.Hysteresis {
			continue // not enough consecutive samples yet
		}
		if tr.fired && !tr.Level {
			continue // edge-sensitive: already fired on this episode
		}
		tr.fired = true
		p.TriggersFired++
		if p.intr != nil {
			p.intr(Notification{
				Plane:  p,
				Slot:   slot,
				DSID:   ds,
				Stat:   p.stats.Columns()[tr.StatCol].Name,
				Value:  val,
				Action: tr.Action,
				When:   p.engine.Now(),
			})
		}
	}
}

// evaluateAll runs Evaluate for every DS-id with a statistics row.
func (p *Plane) evaluateAll() {
	for _, ds := range p.stats.Rows() {
		p.Evaluate(ds)
	}
}

// InstallTrigger programs a trigger slot directly (the firmware's
// pardtrigger path ultimately lands here via MMIO).
func (p *Plane) InstallTrigger(slot int, tr Trigger) error {
	dst, err := p.Trigger(slot)
	if err != nil {
		return err
	}
	if tr.StatCol < 0 || tr.StatCol >= p.stats.NumColumns() {
		return fmt.Errorf("core: trigger stat column %d out of range", tr.StatCol)
	}
	tr.fired = false
	tr.trueRun = 0
	*dst = tr
	return nil
}
