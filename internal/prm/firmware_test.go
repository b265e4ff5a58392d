package prm

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

type fakePlatform struct {
	tags    map[int]core.DSID
	routes  map[core.DSID]map[uint8]int
	vnics   map[uint64]core.DSID
	flushed []core.DSID
	stopped []int
}

func newFakePlatform() *fakePlatform {
	return &fakePlatform{
		tags:   map[int]core.DSID{},
		routes: map[core.DSID]map[uint8]int{},
		vnics:  map[uint64]core.DSID{},
	}
}

func (p *fakePlatform) SetCoreTag(c int, ds core.DSID) { p.tags[c] = ds }
func (p *fakePlatform) StopCore(c int)                 { p.stopped = append(p.stopped, c) }
func (p *fakePlatform) RouteInterrupt(ds core.DSID, v uint8, c int) {
	if p.routes[ds] == nil {
		p.routes[ds] = map[uint8]int{}
	}
	p.routes[ds][v] = c
}
func (p *fakePlatform) ClearRoutes(ds core.DSID) { delete(p.routes, ds) }
func (p *fakePlatform) BindVNIC(mac uint64, ds core.DSID, _ uint64) error {
	p.vnics[mac] = ds
	return nil
}
func (p *fakePlatform) UnbindVNIC(mac uint64) { delete(p.vnics, mac) }

func (p *fakePlatform) FlushLDom(ds core.DSID) { p.flushed = append(p.flushed, ds) }

func cachePlane(e *sim.Engine) *core.Plane {
	params := core.NewTable(core.Column{Name: "waymask", Writable: true, Default: 0xFFFF})
	stats := core.NewTable(core.Column{Name: "miss_rate"}, core.Column{Name: "capacity"})
	p := core.NewPlane(e, "CACHE_CP", core.PlaneTypeCache, params, stats, 8)
	p.Sample(sim.Second) // the firmware needs a sampler; tests evaluate by hand well before it runs
	return p
}

func memPlane(e *sim.Engine) *core.Plane {
	params := core.NewTable(
		core.Column{Name: "addr_base", Writable: true},
		core.Column{Name: "priority", Writable: true},
		core.Column{Name: "rowbuf", Writable: true},
		core.Column{Name: "addr_limit", Writable: true},
	)
	stats := core.NewTable(
		core.Column{Name: "avg_qlat"},
		core.Column{Name: "bandwidth"},
		core.Column{Name: "violations"},
	)
	p := core.NewPlane(e, "MEM_CP", core.PlaneTypeMemory, params, stats, 8)
	p.Sample(sim.Second)
	return p
}

func newFirmware(t *testing.T) (*sim.Engine, *Firmware, *fakePlatform, *core.Plane, *core.Plane) {
	t.Helper()
	e := sim.NewEngine()
	plat := newFakePlatform()
	fw := NewFirmware(e, Config{HandlerLatency: sim.Microsecond}, plat)
	cp := cachePlane(e)
	mp := memPlane(e)
	fw.Mount(core.NewCPA(cp, 0))
	fw.Mount(core.NewCPA(mp, 0))
	return e, fw, plat, cp, mp
}

func TestMountBuildsDeviceTree(t *testing.T) {
	_, fw, _, _, _ := newFirmware(t)
	ident, err := fw.FS().ReadFile("/sys/cpa/cpa0/ident")
	if err != nil || ident != "CACHE_CP" {
		t.Fatalf("ident = %q, %v", ident, err)
	}
	typ, _ := fw.FS().ReadFile("/sys/cpa/cpa1/type")
	if !strings.Contains(typ, "'M'") {
		t.Fatalf("type = %q", typ)
	}
	entries, _ := fw.FS().List("/sys/cpa")
	if len(entries) != 2 {
		t.Fatalf("mounted planes: %v", entries)
	}
}

func TestCreateLDomProgramsPlanesAndPlatform(t *testing.T) {
	_, fw, plat, cp, mp := newFirmware(t)
	ld, err := fw.CreateLDom(LDomSpec{
		Name: "web", Cores: []int{0, 1}, MemBase: 1 << 30, Priority: 1, RowBuf: 1, MAC: 0xAB,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ld.DSID != 0 {
		t.Fatalf("first LDom ds = %d, want 0", ld.DSID)
	}
	if !cp.Params().HasRow(0) || !mp.Params().HasRow(0) {
		t.Fatal("plane rows not created")
	}
	if mp.Param(0, "addr_base") != 1<<30 || mp.Param(0, "priority") != 1 || mp.Param(0, "rowbuf") != 1 {
		t.Fatal("memory plane not programmed from spec")
	}
	if plat.tags[0] != 0 || plat.tags[1] != 0 {
		t.Fatalf("core tags = %v", plat.tags)
	}
	if plat.routes[0][14] != 0 || plat.routes[0][11] != 0 {
		t.Fatalf("interrupt routes = %v", plat.routes)
	}
	if plat.vnics[0xAB] != 0 {
		t.Fatalf("vNIC bindings = %v", plat.vnics)
	}
	// File tree materialized on both planes.
	for _, p := range []string{
		"/sys/cpa/cpa0/ldoms/ldom0/parameters/waymask",
		"/sys/cpa/cpa0/ldoms/ldom0/statistics/miss_rate",
		"/sys/cpa/cpa1/ldoms/ldom0/parameters/priority",
	} {
		if !fw.FS().Exists(p) {
			t.Fatalf("missing %s", p)
		}
	}
}

func TestCreateLDomSetsAddrLimit(t *testing.T) {
	_, fw, _, _, mp := newFirmware(t)
	fw.CreateLDom(LDomSpec{Name: "bounded", MemSize: 1 << 30})
	if mp.Param(0, "addr_limit") != 1<<30 {
		t.Fatalf("addr_limit = %d", mp.Param(0, "addr_limit"))
	}
	fw.CreateLDom(LDomSpec{Name: "unbounded"})
	if mp.Param(1, "addr_limit") != 0 {
		t.Fatal("addr_limit set without MemSize")
	}
}

// LDoms hands out a DS-id-ordered copy: a caller can neither see map
// order nor change the firmware's LDom set through it.
func TestLDomsIsSortedCopy(t *testing.T) {
	_, fw, _, _, _ := newFirmware(t)
	for _, name := range []string{"a", "b", "c"} {
		if _, err := fw.CreateLDom(LDomSpec{Name: name}); err != nil {
			t.Fatal(err)
		}
	}
	before := fw.MustSh("ldoms")
	lds := fw.LDoms()
	for i, ld := range lds {
		if ld.DSID != core.DSID(i) {
			t.Fatalf("LDoms()[%d] is ds%d, want DS-id order", i, ld.DSID)
		}
	}
	lds[0], lds[2] = lds[2], nil
	if got := fw.MustSh("ldoms"); got != before || len(fw.LDoms()) != 3 || fw.LDoms()[0].DSID != 0 {
		t.Fatalf("editing the returned slice changed the firmware's LDoms:\n%s", got)
	}
}

func TestActionQuarantine(t *testing.T) {
	e, fw, _, cp, mp := newFirmware(t)
	fw.CreateLDom(LDomSpec{Name: "rogue", Priority: 1})
	fw.Sh("pardtrigger cpa1 -ldom=0 -stats=violations -cond=gt,0 -action=" + ActionQuarantine)
	mp.SetStat(0, "violations", 3)
	mp.Evaluate(0)
	e.Run(e.Now() + 10*sim.Microsecond)
	if mp.Param(0, "priority") != 0 {
		t.Fatalf("priority = %d after quarantine", mp.Param(0, "priority"))
	}
	if cp.Param(0, "waymask") != 0x1 {
		t.Fatalf("waymask = %#x after quarantine", cp.Param(0, "waymask"))
	}
}

func TestShellEchoCatRoundtrip(t *testing.T) {
	_, fw, _, cp, _ := newFirmware(t)
	fw.CreateLDom(LDomSpec{Name: "a"})
	if _, err := fw.Sh("echo 0xFF00 > /sys/cpa/cpa0/ldoms/ldom0/parameters/waymask"); err != nil {
		t.Fatal(err)
	}
	if got := cp.Param(0, "waymask"); got != 0xFF00 {
		t.Fatalf("plane waymask = %#x after echo", got)
	}
	out, err := fw.Sh("cat /sys/cpa/cpa0/ldoms/ldom0/parameters/waymask")
	if err != nil || out != "0xff00" {
		t.Fatalf("cat = %q, %v", out, err)
	}
	// Statistics reads are live.
	cp.SetStat(0, "miss_rate", 317)
	out, _ = fw.Sh("cat /sys/cpa/cpa0/ldoms/ldom0/statistics/miss_rate")
	if out != "317" {
		t.Fatalf("live stat read = %q", out)
	}
	// Statistics are read-only through the tree.
	if _, err := fw.Sh("echo 1 > /sys/cpa/cpa0/ldoms/ldom0/statistics/miss_rate"); err == nil {
		t.Fatal("stat write allowed")
	}
}

func TestShellLsAndErrors(t *testing.T) {
	_, fw, _, _, _ := newFirmware(t)
	fw.CreateLDom(LDomSpec{Name: "a"})
	out, err := fw.Sh("ls /sys/cpa/cpa0/ldoms/ldom0")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "parameters/") || !strings.Contains(out, "statistics/") {
		t.Fatalf("ls = %q", out)
	}
	for _, bad := range []string{"frobnicate", "cat", "echo 1 2 3", "cat /none"} {
		if _, err := fw.Sh(bad); err == nil {
			t.Errorf("command %q did not error", bad)
		}
	}
	if out, err := fw.Sh(""); err != nil || out != "" {
		t.Error("empty command should be a no-op")
	}
}

func TestPardtriggerInstallsAndFires(t *testing.T) {
	e, fw, _, cp, _ := newFirmware(t)
	fw.SetJournal(telemetry.NewJournal(e, 64))
	fw.CreateLDom(LDomSpec{Name: "mc"})
	var ran int
	fw.RegisterAction("test_action", func(fw *Firmware, n core.Notification) error {
		ran++
		if n.DSID != 0 || n.Stat != "miss_rate" {
			t.Errorf("notification %+v", n)
		}
		return nil
	})
	out, err := fw.Sh("pardtrigger cpa0 -ldom=0 -stats=miss_rate -cond=gt,300 -action=test_action")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "slot 0") {
		t.Fatalf("pardtrigger output %q", out)
	}
	// The binding leaf exists, as in Figure 6.
	bind, _ := fw.FS().ReadFile("/sys/cpa/cpa0/ldoms/ldom0/triggers/0")
	if bind != "test_action" {
		t.Fatalf("trigger binding = %q", bind)
	}
	// Hardware updates the stat and evaluates: interrupt -> firmware.
	cp.SetStat(0, "miss_rate", 500)
	cp.Evaluate(0)
	e.Run(e.Now() + 10*sim.Microsecond)
	if ran != 1 {
		t.Fatalf("action ran %d times", ran)
	}
	if fw.TriggersHandled != 1 {
		t.Fatalf("TriggersHandled = %d", fw.TriggersHandled)
	}
	if !strings.Contains(fw.MustSh("log"), "trigger_fired") {
		t.Fatal("firmware log lacks the firing")
	}
}

func TestRebindActionThroughTree(t *testing.T) {
	e, fw, _, cp, _ := newFirmware(t)
	fw.CreateLDom(LDomSpec{Name: "a"})
	var aRan, bRan int
	fw.RegisterAction("a", func(*Firmware, core.Notification) error { aRan++; return nil })
	fw.RegisterAction("b", func(*Firmware, core.Notification) error { bRan++; return nil })
	fw.Sh("pardtrigger cpa0 -ldom=0 -stats=miss_rate -cond=gt,10 -action=a")
	// Operator rebinds the slot by writing the leaf (echo script > trigger).
	if err := fw.FS().WriteFile("/sys/cpa/cpa0/ldoms/ldom0/triggers/0", "b"); err != nil {
		t.Fatal(err)
	}
	cp.SetStat(0, "miss_rate", 100)
	cp.Evaluate(0)
	e.Run(e.Now() + 10*sim.Microsecond)
	if aRan != 0 || bRan != 1 {
		t.Fatalf("aRan=%d bRan=%d, want rebound action only", aRan, bRan)
	}
}

func TestUnknownActionCounted(t *testing.T) {
	e, fw, _, cp, _ := newFirmware(t)
	fw.CreateLDom(LDomSpec{Name: "a"})
	fw.Sh("pardtrigger cpa0 -ldom=0 -stats=miss_rate -cond=gt,10 -action=missing")
	cp.SetStat(0, "miss_rate", 100)
	cp.Evaluate(0)
	e.Run(e.Now() + 10*sim.Microsecond)
	if fw.ActionErrors != 1 {
		t.Fatalf("ActionErrors = %d", fw.ActionErrors)
	}
}

func TestActionLLCGrowToHalf(t *testing.T) {
	e, fw, _, cp, _ := newFirmware(t)
	fw.CreateLDom(LDomSpec{Name: "mc"})  // ldom0
	fw.CreateLDom(LDomSpec{Name: "bg1"}) // ldom1
	fw.CreateLDom(LDomSpec{Name: "bg2"}) // ldom2
	fw.Sh("pardtrigger cpa0 -ldom=0 -stats=miss_rate -cond=gt,300 -action=" + ActionLLCGrowToHalf)
	cp.SetStat(0, "miss_rate", 400)
	cp.Evaluate(0)
	e.Run(e.Now() + 10*sim.Microsecond)
	if got := cp.Param(0, "waymask"); got != 0xFF00 {
		t.Fatalf("ldom0 waymask = %#x, want 0xFF00", got)
	}
	for _, ds := range []core.DSID{1, 2} {
		if got := cp.Param(ds, "waymask"); got != 0x00FF {
			t.Fatalf("ldom%d waymask = %#x, want 0x00FF", ds, got)
		}
	}
}

func TestActionMemRaisePriority(t *testing.T) {
	e, fw, _, cp, mp := newFirmware(t)
	fw.CreateLDom(LDomSpec{Name: "mc"})
	fw.Sh("pardtrigger cpa0 -ldom=0 -stats=miss_rate -cond=gt,10 -action=" + ActionMemRaisePriority)
	cp.SetStat(0, "miss_rate", 99)
	cp.Evaluate(0)
	e.Run(e.Now() + 10*sim.Microsecond)
	if mp.Param(0, "priority") != 1 {
		t.Fatalf("priority = %d after action", mp.Param(0, "priority"))
	}
}

func TestDestroyLDomCleansUp(t *testing.T) {
	_, fw, plat, cp, _ := newFirmware(t)
	fw.CreateLDom(LDomSpec{Name: "x", Cores: []int{3}, MAC: 0xCC})
	fw.Sh("pardtrigger cpa0 -ldom=0 -stats=miss_rate -cond=gt,1 -action=log_only")
	if err := fw.DestroyLDom(0); err != nil {
		t.Fatal(err)
	}
	if len(plat.stopped) != 1 || plat.stopped[0] != 3 {
		t.Fatalf("cores stopped on teardown = %v, want [3]", plat.stopped)
	}
	if cp.Params().HasRow(0) {
		t.Fatal("plane row survived destroy")
	}
	if fw.FS().Exists("/sys/cpa/cpa0/ldoms/ldom0") {
		t.Fatal("file tree survived destroy")
	}
	if len(plat.vnics) != 0 {
		t.Fatal("vNIC still bound")
	}
	if len(plat.routes) != 0 {
		t.Fatalf("interrupt routes survived destroy: %v", plat.routes)
	}
	if len(fw.bindings) != 0 {
		t.Fatal("trigger binding survived destroy")
	}
	if len(plat.flushed) != 1 || plat.flushed[0] != 0 {
		t.Fatalf("cache scrub on teardown: flushed = %v", plat.flushed)
	}
	if err := fw.DestroyLDom(0); err == nil {
		t.Fatal("double destroy succeeded")
	}
}

// Destroying an LDom unbinds the triggers that watched it, whatever its
// DS-id, so their suppressed firings leave the trig_suppressed
// statistic of the LDoms that remain.
func TestDestroyLDomUnbindsItsTriggers(t *testing.T) {
	e, fw, _, cp, _ := newFirmware(t)
	for _, name := range []string{"a", "b"} {
		if _, err := fw.CreateLDom(LDomSpec{Name: name}); err != nil {
			t.Fatal(err)
		}
	}
	countAction(fw, "count")
	if _, err := fw.InstallTriggerSpec(0, TriggerSpec{
		DSID: 1, Stat: "miss_rate", Op: core.OpGT, Value: 300,
		Level: true, Action: "count", Cooldown: 10 * sim.Microsecond,
	}); err != nil {
		t.Fatal(err)
	}
	cp.SetStat(1, "miss_rate", 500)
	for i := 1; i <= 5; i++ {
		e.Schedule(sim.Tick(i)*sim.Microsecond, func() { cp.Evaluate(1) })
	}
	e.Run(e.Now() + 10*sim.Microsecond)
	if fw.TriggersSuppressed == 0 {
		t.Fatal("the trigger on ds1 suppressed nothing")
	}
	if err := fw.DestroyLDom(1); err != nil {
		t.Fatal(err)
	}
	if len(fw.bindings) != 0 {
		t.Errorf("%d trigger bindings survived DestroyLDom(1)", len(fw.bindings))
	}
	if got, err := fw.FS().ReadFile("/sys/cpa/cpa0/ldoms/ldom0/statistics/trig_suppressed"); err != nil || got != "0" {
		t.Errorf("ldom0 trig_suppressed = %q, %v after ds1's teardown, want 0", got, err)
	}
}

func TestTriggerSlotExhaustion(t *testing.T) {
	_, fw, _, _, _ := newFirmware(t)
	fw.CreateLDom(LDomSpec{Name: "x"})
	for i := 0; i < 8; i++ { // cache plane has 8 slots
		if _, err := fw.InstallTrigger(0, 0, "miss_rate", core.OpGT, 1, ActionLogOnly); err != nil {
			t.Fatalf("slot %d: %v", i, err)
		}
	}
	if _, err := fw.InstallTrigger(0, 0, "miss_rate", core.OpGT, 1, ActionLogOnly); err == nil {
		t.Fatal("9th trigger accepted on an 8-slot table")
	}
}

func TestInstallTriggerValidatesStat(t *testing.T) {
	_, fw, _, _, _ := newFirmware(t)
	if _, err := fw.InstallTrigger(0, 0, "no_such_stat", core.OpGT, 1, ActionLogOnly); err == nil {
		t.Fatal("unknown stat accepted")
	}
	if _, err := fw.InstallTrigger(9, 0, "miss_rate", core.OpGT, 1, ActionLogOnly); err == nil {
		t.Fatal("unknown cpa accepted")
	}
}

func TestLateMountSeesExistingLDoms(t *testing.T) {
	e := sim.NewEngine()
	fw := NewFirmware(e, Config{}, nil)
	fw.Mount(core.NewCPA(cachePlane(e), 0))
	fw.CreateLDom(LDomSpec{Name: "early"})
	fw.Mount(core.NewCPA(memPlane(e), 0))
	if !fw.FS().Exists("/sys/cpa/cpa1/ldoms/ldom0/parameters/priority") {
		t.Fatal("late-mounted plane missing existing LDom subtree")
	}
}

// Property: formatValue/parseValue round-trip for both hex (mask/mac)
// and decimal columns.
func TestPropertyValueRoundtrip(t *testing.T) {
	f := func(v uint64, hexish bool) bool {
		col := "priority"
		if hexish {
			col = "waymask"
		}
		s := formatValue(col, v)
		got, err := parseValue(s)
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := parseValue("not-a-number"); err == nil {
		t.Fatal("garbage parsed")
	}
}

// TestFirmwareLogFile: /log/triggers.log and the `log` command render
// the audit journal, read-only; without a journal they say so.
func TestFirmwareLogFile(t *testing.T) {
	e, fw, _, _, _ := newFirmware(t)
	if out, err := fw.Sh("cat /log/triggers.log"); err != nil || out != "journal empty\n" {
		t.Fatalf("log without a journal = %q, %v", out, err)
	}
	fw.SetJournal(telemetry.NewJournal(e, 64))
	if _, err := fw.CreateLDom(LDomSpec{Name: "hello"}); err != nil {
		t.Fatal(err)
	}
	out, err := fw.Sh("cat /log/triggers.log")
	if err != nil || !strings.Contains(out, "ldom_create") || !strings.Contains(out, "name=hello") {
		t.Fatalf("log = %q, %v", out, err)
	}
	if sh := fw.MustSh("log"); sh != out || out != telemetry.JournalText(fw.Journal(), 0) {
		t.Fatalf("log command %q, /log/triggers.log %q: want both to be the journal's render", sh, out)
	}
	if err := fw.FS().WriteFile("/log/triggers.log", "hello"); err == nil {
		t.Fatal("/log/triggers.log accepted a write")
	}
}
