package prm

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Platform is the hardware surface the firmware manipulates beyond the
// control planes: per-core tag registers, APIC route tables and vNIC
// bindings. The system assembly (package pard) implements it.
type Platform interface {
	SetCoreTag(coreID int, ds core.DSID)
	// StopCore halts a core after its current operation (LDom
	// teardown), so it issues nothing more under the LDom's DS-id.
	StopCore(coreID int)
	RouteInterrupt(ds core.DSID, vector uint8, coreID int)
	BindVNIC(mac uint64, ds core.DSID, buf uint64) error
	UnbindVNIC(mac uint64)
	// FlushLDom scrubs caches of every block owned by ds (LDom
	// teardown), so a recycled DS-id cannot hit stale data.
	FlushLDom(ds core.DSID)
}

// Action is a trigger handler run by the firmware when a control plane
// raises an interrupt (the paper's trigger handlers, Figure 2 right).
type Action func(fw *Firmware, n core.Notification) error

// Config tunes the PRM.
type Config struct {
	// HandlerLatency models the firmware's interrupt-to-action delay
	// (the PRM is a 100 MHz embedded core; default 10 µs).
	HandlerLatency sim.Tick

	// TriggerCooldown is the default per-trigger re-fire cooldown
	// applied by InstallTrigger: within the window after an action
	// runs, further interrupts from the same slot are suppressed (and
	// counted) instead of re-running the action. Zero disables the
	// cooldown, preserving the historical dispatch behavior; policies
	// set per-rule cooldowns explicitly via InstallTriggerSpec.
	TriggerCooldown sim.Tick
}

// LDomSpec describes the resources of a logical domain.
type LDomSpec struct {
	Name     string
	Cores    []int
	MemBase  uint64 // DRAM-physical base of the LDom's memory window
	MemSize  uint64
	Priority uint64 // memory scheduling priority (larger = higher)
	RowBuf   uint64 // memory row-buffer id
	MAC      uint64 // nonzero: bind a vNIC
	NICBuf   uint64 // RX buffer base within the LDom
}

// LDom is a created logical domain.
type LDom struct {
	Spec    LDomSpec
	DSID    core.DSID
	Created sim.Tick
}

type mount struct {
	cpa  *core.CPA
	name string // cpaN
}

type slotKey struct {
	cpa  int
	slot int
}

// binding is the firmware's per-trigger dispatch record: the bound
// action plus the cooldown pacing state that prevents a persistently
// true, level-sensitive trigger from re-running its action every
// sample window (the re-fire storm fix).
type binding struct {
	action   string
	cooldown sim.Tick // 0 = no pacing
	origin   string   // who installed the trigger (journal stamping)

	lastRun    sim.Tick // engine time the action last ran
	everRan    bool
	suppressed uint64 // interrupts swallowed by the cooldown

	// onCooldown observes suppressed firings (the policy runtime
	// records them for `pardctl policy explain`).
	onCooldown func(n core.Notification)
}

// Firmware is the PRM's resident software. It owns the device file
// tree, the control-plane adaptors, the action registry and the LDom
// table.
type Firmware struct {
	engine   *sim.Engine
	cfg      Config
	fs       *FS
	platform Platform

	mounts  []mount
	actions map[string]Action
	// bindings maps a fired trigger slot to its action and pacing
	// state, mirroring the ".../triggers/N -> script" leaves of
	// Figure 6.
	bindings map[slotKey]*binding

	// policies holds the loaded pardpolicy sets by name.
	policies map[string]*policySet

	ldoms  map[core.DSID]*LDom
	nextDS core.DSID

	// extraStats holds per-CPA statistics leaves registered by the
	// platform beyond the control-plane tables (e.g. the flight
	// recorder's latency percentiles), added to every LDom subtree.
	extraStats map[int][]ldomStat

	// TriggersHandled counts actions run; ActionErrors counts
	// failures; TriggersSuppressed counts interrupts swallowed by a
	// trigger cooldown.
	TriggersHandled    uint64
	ActionErrors       uint64
	TriggersSuppressed uint64

	// journal, when set, receives audit events for every control-plane
	// verb the firmware performs, and /log/triggers.log renders it. A
	// nil journal drops everything.
	journal *telemetry.Journal

	// origin labels where the currently executing command came from
	// ("console", "pardctl", "policy:<set>/<rule>"); empty means the
	// firmware itself. Journal events are stamped with it.
	origin string
}

// NewFirmware boots the firmware. platform may be nil in unit tests.
func NewFirmware(e *sim.Engine, cfg Config, platform Platform) *Firmware {
	if cfg.HandlerLatency == 0 {
		cfg.HandlerLatency = 10 * sim.Microsecond
	}
	fw := &Firmware{
		engine:     e,
		cfg:        cfg,
		fs:         NewFS(),
		platform:   platform,
		actions:    make(map[string]Action),
		bindings:   make(map[slotKey]*binding),
		policies:   make(map[string]*policySet),
		ldoms:      make(map[core.DSID]*LDom),
		extraStats: make(map[int][]ldomStat),
	}
	fw.fs.Mkdir("/sys/cpa")
	fw.fs.Mkdir("/log")
	fw.fs.AddFile("/log/triggers.log", func() (string, error) {
		return telemetry.JournalText(fw.journal, 0), nil
	}, nil)
	registerBuiltinActions(fw)
	return fw
}

// FS exposes the device file tree.
func (fw *Firmware) FS() *FS { return fw.fs }

// SetJournal wires the control-plane audit journal.
func (fw *Firmware) SetJournal(j *telemetry.Journal) { fw.journal = j }

// Journal returns the wired audit journal (nil when telemetry is off).
func (fw *Firmware) Journal() *telemetry.Journal { return fw.journal }

// Origin reports who is driving the firmware right now, for journal
// stamping; outside any command context it is the firmware itself.
func (fw *Firmware) Origin() string {
	if fw.origin == "" {
		return "firmware"
	}
	return fw.origin
}

// WithOrigin runs fn with the journal origin label set (and restored
// after). The console shell and the policy runtime wrap their work in
// it so every resulting event says who caused it.
func (fw *Firmware) WithOrigin(origin string, fn func()) {
	prev := fw.origin
	fw.origin = origin
	fn()
	fw.origin = prev
}

// journalError records a failure that has no caller to return it to:
// a trigger's action that is missing or fails, or a policy teardown
// step. name is the action or algorithm concerned.
func (fw *Firmware) journalError(origin, plane string, ds core.DSID, name, msg string) {
	fw.journal.Record(telemetry.Event{
		Kind:   telemetry.KindError,
		Origin: origin,
		Plane:  plane,
		DS:     ds,
		Name:   name,
		Detail: msg,
	})
}

// RegisterAction installs a named trigger handler.
func (fw *Firmware) RegisterAction(name string, fn Action) {
	fw.actions[name] = fn
}

// Mount attaches a control-plane adaptor: the plane's interrupt line is
// wired to the firmware and its tables appear under /sys/cpa/cpaN.
func (fw *Firmware) Mount(cpa *core.CPA) {
	idx := len(fw.mounts)
	cpa.Index = idx
	name := fmt.Sprintf("cpa%d", idx)
	fw.mounts = append(fw.mounts, mount{cpa: cpa, name: name})

	base := "/sys/cpa/" + name
	fw.fs.AddFile(base+"/ident", func() (string, error) { return cpa.IdentString(), nil }, nil)
	fw.fs.AddFile(base+"/type", func() (string, error) {
		return fmt.Sprintf("%#x '%c'", cpa.Plane.Type(), cpa.Plane.Type()), nil
	}, nil)
	fw.fs.Mkdir(base + "/ldoms")

	// Components with a programmable scheduling plane expose it as a
	// device node: reading reports the algorithm in force, writing
	// installs a new one (the manual counterpart of the .pard
	// `schedule` directive).
	if cpa.Plane.HasScheduler() {
		fw.fs.AddFile(base+"/scheduler",
			func() (string, error) { return cpa.Plane.SchedulerAlgo(), nil },
			func(s string) error {
				algo := strings.TrimSpace(s)
				prev := cpa.Plane.SchedulerAlgo()
				if err := cpa.Plane.InstallScheduler(algo); err != nil {
					return err
				}
				fw.journal.Record(telemetry.Event{
					Kind:   telemetry.KindSchedInstall,
					Origin: fw.Origin(),
					Plane:  name,
					Name:   algo,
					Detail: "displaced " + prev,
				})
				return nil
			})
	}

	cpa.Plane.SetInterrupt(func(n core.Notification) {
		// The interrupt crosses the control-plane network to the PRM;
		// the firmware handles it after its dispatch latency.
		fw.engine.Schedule(fw.cfg.HandlerLatency, func() { fw.handle(idx, n) })
	})

	// Already-existing LDoms appear under a late-mounted plane too.
	for ds := range fw.ldoms {
		fw.addLDomTree(idx, ds)
	}

	// Surface cooldown-suppressed interrupt counts as a per-LDom
	// statistic: the sum over this plane's trigger slots watching the
	// LDom's DS-id.
	_ = fw.AddLDomStat(idx, "trig_suppressed", func(ds core.DSID) (string, error) {
		var sum uint64
		for key, b := range fw.bindings {
			if key.cpa != idx {
				continue
			}
			tr, err := cpa.Plane.Trigger(key.slot)
			if err == nil && tr.DSID == ds {
				sum += b.suppressed
			}
		}
		return strconv.FormatUint(sum, 10), nil
	})
}

// CPA returns the mounted adaptor with the given index.
func (fw *Firmware) CPA(idx int) (*core.CPA, error) {
	if idx < 0 || idx >= len(fw.mounts) {
		return nil, fmt.Errorf("prm: no cpa%d", idx)
	}
	return fw.mounts[idx].cpa, nil
}

// handle runs when a trigger interrupt reaches the firmware.
func (fw *Firmware) handle(cpaIdx int, n core.Notification) {
	b := fw.bindings[slotKey{cpa: cpaIdx, slot: n.Slot}]
	now := fw.engine.Now()
	if b != nil && b.cooldown > 0 && b.everRan && now-b.lastRun < b.cooldown {
		// Re-fire storm containment: the condition is still true and
		// the trigger re-raised within the slot's cooldown window.
		// Swallow the interrupt, count it, and let the policy runtime
		// observe the suppression.
		fw.TriggersSuppressed++
		b.suppressed++
		fw.journal.Record(telemetry.Event{
			Kind:   telemetry.KindTriggerSuppress,
			Origin: b.origin,
			Plane:  fw.mounts[cpaIdx].name,
			DS:     n.DSID,
			Name:   n.Stat,
			Old:    uint64(now - b.lastRun),
			New:    uint64(b.cooldown),
			Detail: "suppressed: action " + b.action + " on cooldown",
		})
		if b.onCooldown != nil {
			b.onCooldown(n)
		}
		return
	}

	fw.TriggersHandled++
	if b == nil {
		fw.journal.Record(telemetry.Event{
			Kind:   telemetry.KindTriggerFired,
			Origin: "firmware",
			Plane:  fw.mounts[cpaIdx].name,
			DS:     n.DSID,
			Name:   n.Stat,
			New:    n.Value,
			Detail: "no action bound",
		})
		return
	}
	fw.journal.Record(telemetry.Event{
		Kind:   telemetry.KindTriggerFired,
		Origin: b.origin,
		Plane:  fw.mounts[cpaIdx].name,
		DS:     n.DSID,
		Name:   n.Stat,
		New:    n.Value,
		Detail: "action " + b.action,
	})
	fn, ok := fw.actions[b.action]
	if !ok {
		fw.ActionErrors++
		fw.journalError(b.origin, fw.mounts[cpaIdx].name, n.DSID, b.action,
			fmt.Sprintf("action %q not registered", b.action))
		return
	}
	b.everRan = true
	b.lastRun = now
	// Parameter writes the action makes journal under the trigger's
	// install-time origin (policy actions re-wrap with their rule name).
	var err error
	fw.WithOrigin(b.origin, func() { err = fn(fw, n) })
	if err != nil {
		fw.ActionErrors++
		fw.journalError(b.origin, fw.mounts[cpaIdx].name, n.DSID, b.action,
			fmt.Sprintf("action %q failed: %v", b.action, err))
	}
}

// TriggerSpec describes a trigger installation: condition, firing
// semantics, and the bound action with its dispatch cooldown.
type TriggerSpec struct {
	DSID       core.DSID
	Stat       string
	Op         core.CmpOp
	Value      uint64
	Level      bool   // fire every sample while true (needs a cooldown)
	Hysteresis uint64 // consecutive true samples required before firing
	Action     string
	Cooldown   sim.Tick // per-slot dispatch cooldown; 0 = none
}

// InstallTrigger programs a trigger into a plane through its CPA MMIO
// interface and binds an action name to the slot, creating the
// ".../triggers/<slot>" leaf. It returns the slot used. The slot
// inherits Config.TriggerCooldown. This is the shell's (pardtrigger)
// path, so it journals the installation itself; policies install
// through InstallTriggerSpec and journal their load instead.
func (fw *Firmware) InstallTrigger(cpaIdx int, ds core.DSID, stat string, op core.CmpOp, value uint64, action string) (int, error) {
	slot, err := fw.InstallTriggerSpec(cpaIdx, TriggerSpec{
		DSID: ds, Stat: stat, Op: op, Value: value,
		Action: action, Cooldown: fw.cfg.TriggerCooldown,
	})
	if err != nil {
		return 0, err
	}
	fw.journal.Record(telemetry.Event{
		Kind:   telemetry.KindTriggerInstall,
		Origin: fw.Origin(),
		Plane:  fw.mounts[cpaIdx].name,
		DS:     ds,
		Name:   stat,
		Detail: fmt.Sprintf("cond=%s,%d action=%s slot=%d", op, value, action, slot),
	})
	return slot, nil
}

// InstallTriggerSpec is InstallTrigger with full control over firing
// semantics (level/hysteresis) and the dispatch cooldown — the policy
// compiler's installation path. A plane that runs no statistics
// sampler never evaluates its trigger table, so it is refused.
func (fw *Firmware) InstallTriggerSpec(cpaIdx int, spec TriggerSpec) (int, error) {
	cpa, err := fw.CPA(cpaIdx)
	if err != nil {
		return 0, err
	}
	if cpa.Plane.SampleInterval() == 0 {
		var sampled []string
		for _, m := range fw.mounts {
			if m.cpa.Plane.SampleInterval() != 0 {
				sampled = append(sampled, m.name)
			}
		}
		return 0, fmt.Errorf("prm: cpa%d (%s) runs no statistics sampler, so its triggers would never fire; planes that sample: %s",
			cpaIdx, cpa.Plane.Ident(), strings.Join(sampled, ", "))
	}
	statCol, ok := cpa.Plane.Stats().ColumnIndex(spec.Stat)
	if !ok {
		return 0, fmt.Errorf("prm: cpa%d has no statistic %q", cpaIdx, spec.Stat)
	}
	slot, err := fw.freeSlot(cpa)
	if err != nil {
		return 0, err
	}
	level := uint64(0)
	if spec.Level {
		level = 1
	}
	fields := []struct {
		col int
		val uint64
	}{
		{core.TrigColDSID, uint64(spec.DSID)},
		{core.TrigColStat, uint64(statCol)},
		{core.TrigColOp, uint64(spec.Op)},
		{core.TrigColValue, spec.Value},
		{core.TrigColAction, uint64(slot)},
		{core.TrigColLevel, level},
		{core.TrigColHyst, spec.Hysteresis},
		{core.TrigColEnabled, 1},
	}
	for _, f := range fields {
		if err := cpa.WriteEntry(core.DSID(slot), f.col, core.SelTrigger, f.val); err != nil {
			return 0, err
		}
	}
	key := slotKey{cpa: cpaIdx, slot: slot}
	b := &binding{action: spec.Action, cooldown: spec.Cooldown, origin: fw.Origin()}
	fw.bindings[key] = b
	path := fmt.Sprintf("/sys/cpa/cpa%d/ldoms/ldom%d/triggers/%d", cpaIdx, spec.DSID, slot)
	fw.fs.AddFile(path,
		func() (string, error) { return b.action, nil },
		func(s string) error {
			b.action = s
			return nil
		})
	return slot, nil
}

// removeTrigger disables a trigger slot through MMIO, unbinds it, and
// removes its device-tree leaf (policy teardown path).
func (fw *Firmware) removeTrigger(cpaIdx, slot int) error {
	cpa, err := fw.CPA(cpaIdx)
	if err != nil {
		return err
	}
	tr, err := cpa.Plane.Trigger(slot)
	if err != nil {
		return err
	}
	ds := tr.DSID
	for col := 0; col < core.NumTrigCols; col++ {
		if err := cpa.WriteEntry(core.DSID(slot), col, core.SelTrigger, 0); err != nil {
			return err
		}
	}
	delete(fw.bindings, slotKey{cpa: cpaIdx, slot: slot})
	fw.fs.Remove(fmt.Sprintf("/sys/cpa/cpa%d/ldoms/ldom%d/triggers/%d", cpaIdx, ds, slot))
	return nil
}

// freeSlot scans the trigger table through MMIO for a disabled slot.
func (fw *Firmware) freeSlot(cpa *core.CPA) (int, error) {
	for slot := 0; slot < cpa.Plane.TriggerSlots(); slot++ {
		en, err := cpa.ReadEntry(core.DSID(slot), core.TrigColEnabled, core.SelTrigger)
		if err != nil {
			return 0, err
		}
		if en == 0 {
			return slot, nil
		}
	}
	return 0, fmt.Errorf("prm: trigger table full")
}

// CreateLDom allocates a DS-id, programs every mounted control plane,
// tags the LDom's cores, routes its interrupts and binds its vNIC
// (paper §3.1 steps T2/T4/T6).
//
// The steps that can fail come first: the memory parameters are
// resolved before anything changes, and the vNIC is bound before any
// parameter is written. A failed create therefore leaves no LDom, row,
// device-tree path, core tag, vNIC binding or journal event behind,
// and consumes no DS-id.
func (fw *Firmware) CreateLDom(spec LDomSpec) (*LDom, error) {
	ds := fw.nextDS

	// The memory control plane's address map and QoS knobs. A nonzero
	// MemSize bounds the LDom's physical window: accesses beyond fault
	// and count as violations (security containment).
	type paramWrite struct {
		col int
		v   uint64
	}
	var memCPA *core.CPA
	var memWrites []paramWrite
	if _, cpa, err := fw.mountByType(core.PlaneTypeMemory); err == nil {
		memCPA = cpa
		names := []string{"addr_base", "priority", "rowbuf", "addr_limit"}
		values := []uint64{spec.MemBase, spec.Priority, spec.RowBuf, spec.MemSize}
		if spec.MemSize == 0 {
			names = names[:3]
		}
		cols := cpa.Plane.Params().Columns()
		for i, name := range names {
			col, ok := cpa.Plane.Params().ColumnIndex(name)
			if !ok || !cols[col].Writable {
				return nil, fmt.Errorf("prm: %s has no writable parameter %q", cpa.Plane.Ident(), name)
			}
			memWrites = append(memWrites, paramWrite{col: col, v: values[i]})
		}
	}

	for idx, m := range fw.mounts {
		m.cpa.CreateRow(ds)
		fw.addLDomTree(idx, ds)
	}
	bound := false
	undo := func() {
		if bound {
			fw.platform.UnbindVNIC(spec.MAC)
		}
		fw.removeLDomRows(ds)
	}
	if fw.platform != nil && spec.MAC != 0 {
		if err := fw.platform.BindVNIC(spec.MAC, ds, spec.NICBuf); err != nil {
			undo()
			return nil, err
		}
		bound = true
	}
	for _, w := range memWrites {
		if err := memCPA.WriteEntry(ds, w.col, core.SelParameter, w.v); err != nil {
			undo()
			return nil, err
		}
	}

	if fw.platform != nil {
		for _, c := range spec.Cores {
			fw.platform.SetCoreTag(c, ds)
		}
		if len(spec.Cores) > 0 {
			// Route the platform's device vectors to the LDom's first core.
			fw.platform.RouteInterrupt(ds, 14, spec.Cores[0]) // disk
			fw.platform.RouteInterrupt(ds, 11, spec.Cores[0]) // nic
		}
	}
	ld := &LDom{Spec: spec, DSID: ds, Created: fw.engine.Now()}
	fw.ldoms[ds] = ld
	fw.nextDS++
	fw.journal.Record(telemetry.Event{
		Kind:   telemetry.KindLDomCreate,
		Origin: fw.Origin(),
		DS:     ds,
		Name:   spec.Name,
	})
	return ld, nil
}

// DestroyLDom tears an LDom down. It first stops the LDom's cores and
// resets their tag registers to DSIDDefault, so no new request carries
// ds; only then does it delete the plane rows and flush the caches.
func (fw *Firmware) DestroyLDom(ds core.DSID) error {
	ld, ok := fw.ldoms[ds]
	if !ok {
		return fmt.Errorf("prm: no ldom with ds %d", ds)
	}
	if fw.platform != nil {
		for _, c := range ld.Spec.Cores {
			fw.platform.StopCore(c)
			fw.platform.SetCoreTag(c, core.DSIDDefault)
		}
	}
	fw.removeLDomRows(ds)
	for key := range fw.bindings {
		tr, err := fw.mounts[key.cpa].cpa.Plane.Trigger(key.slot)
		if err == nil && tr.DSID == ds {
			delete(fw.bindings, key)
		}
	}
	if fw.platform != nil {
		if ld.Spec.MAC != 0 {
			fw.platform.UnbindVNIC(ld.Spec.MAC)
		}
		fw.platform.FlushLDom(ds)
	}
	delete(fw.ldoms, ds)
	fw.journal.Record(telemetry.Event{
		Kind:   telemetry.KindLDomDestroy,
		Origin: fw.Origin(),
		DS:     ds,
		Name:   ld.Spec.Name,
	})
	return nil
}

// removeLDomRows deletes ds's row and device-tree directory from every
// mounted control plane.
func (fw *Firmware) removeLDomRows(ds core.DSID) {
	for idx, m := range fw.mounts {
		m.cpa.DeleteRow(ds)
		fw.fs.Remove(fmt.Sprintf("/sys/cpa/cpa%d/ldoms/ldom%d", idx, ds))
	}
}

// LDoms returns the live LDoms in DS-id order. The slice is the
// caller's: changing it leaves the firmware's LDom set alone.
func (fw *Firmware) LDoms() []*LDom {
	out := make([]*LDom, 0, len(fw.ldoms))
	for _, ds := range core.SortedKeys(fw.ldoms) {
		out = append(out, fw.ldoms[ds])
	}
	return out
}

// ldomStat is one platform-registered statistics leaf: its file name
// and a reader parameterized by the owning LDom's DS-id.
type ldomStat struct {
	name string
	read func(core.DSID) (string, error)
}

// AddLDomStat registers an extra statistics leaf for cpaIdx:
// /sys/cpa/cpaN/ldoms/ldomK/statistics/<name> for every LDom K, current
// and future. The platform uses this to expose measurements that live
// outside the control-plane tables, like the flight recorder's
// lat_{p50,p99}_{queue,service} percentiles.
func (fw *Firmware) AddLDomStat(cpaIdx int, name string, read func(core.DSID) (string, error)) error {
	if cpaIdx < 0 || cpaIdx >= len(fw.mounts) {
		return fmt.Errorf("prm: AddLDomStat: no cpa%d mounted", cpaIdx)
	}
	fw.extraStats[cpaIdx] = append(fw.extraStats[cpaIdx], ldomStat{name: name, read: read})
	for _, ds := range core.SortedKeys(fw.ldoms) {
		ds := ds
		path := fmt.Sprintf("/sys/cpa/cpa%d/ldoms/ldom%d/statistics/%s", cpaIdx, ds, name)
		if fw.fs.Exists(path) {
			continue
		}
		if err := fw.fs.AddFile(path, func() (string, error) { return read(ds) }, nil); err != nil {
			return err
		}
	}
	return nil
}

// addLDomTree builds /sys/cpa/cpaN/ldoms/ldomK with parameter and
// statistic leaves whose callbacks perform live CPA MMIO.
func (fw *Firmware) addLDomTree(cpaIdx int, ds core.DSID) {
	cpa := fw.mounts[cpaIdx].cpa
	base := fmt.Sprintf("/sys/cpa/cpa%d/ldoms/ldom%d", cpaIdx, ds)
	if fw.fs.Exists(base) {
		return
	}
	fw.fs.Mkdir(base + "/triggers")
	for colIdx, col := range cpa.Plane.Params().Columns() {
		colIdx, col := colIdx, col
		read := func() (string, error) {
			v, err := cpa.ReadEntry(ds, colIdx, core.SelParameter)
			if err != nil {
				return "", err
			}
			return formatValue(col.Name, v), nil
		}
		var write func(string) error
		if col.Writable {
			write = func(s string) error {
				v, err := parseValue(s)
				if err != nil {
					return err
				}
				return cpa.WriteEntry(ds, colIdx, core.SelParameter, v)
			}
		}
		fw.fs.AddFile(base+"/parameters/"+col.Name, read, write)
	}
	for colIdx, col := range cpa.Plane.Stats().Columns() {
		colIdx, col := colIdx, col
		fw.fs.AddFile(base+"/statistics/"+col.Name, func() (string, error) {
			v, err := cpa.ReadEntry(ds, colIdx, core.SelStatistic)
			if err != nil {
				return "", err
			}
			return formatValue(col.Name, v), nil
		}, nil)
	}
	for _, s := range fw.extraStats[cpaIdx] {
		s := s
		fw.fs.AddFile(base+"/statistics/"+s.name, func() (string, error) {
			return s.read(ds)
		}, nil)
	}
}

// formatValue renders mask-like values in hex, everything else decimal.
func formatValue(col string, v uint64) string {
	if strings.Contains(col, "mask") || strings.Contains(col, "mac") {
		return fmt.Sprintf("%#x", v)
	}
	return strconv.FormatUint(v, 10)
}

// parseValue accepts decimal or 0x-prefixed hex.
func parseValue(s string) (uint64, error) {
	return strconv.ParseUint(strings.TrimSpace(s), 0, 64)
}
