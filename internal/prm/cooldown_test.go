package prm

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// countAction registers an action that counts its runs.
func countAction(fw *Firmware, name string) *int {
	runs := new(int)
	fw.RegisterAction(name, func(fw *Firmware, n core.Notification) error {
		*runs++
		return nil
	})
	return runs
}

// fireStorm drives a level-sensitive trigger with a persistently true
// condition for the given number of sample windows.
func fireStorm(e *sim.Engine, cp *core.Plane, samples int, every sim.Tick) {
	for i := 1; i <= samples; i++ {
		e.Schedule(sim.Tick(i)*every, func() { cp.Evaluate(0) })
	}
	e.Run(e.Now() + sim.Tick(samples+2)*every)
}

// TestTriggerCooldownSuppressesReFireStorm is the regression test for
// the re-fire storm: a level trigger whose condition stays true raises
// an interrupt every sample window; with a per-trigger cooldown the
// action runs once per window and the swallowed interrupts are counted
// and surfaced as the trig_suppressed statistic.
func TestTriggerCooldownSuppressesReFireStorm(t *testing.T) {
	e, fw, _, cp, _ := newFirmware(t)
	if _, err := fw.CreateLDom(LDomSpec{Name: "victim"}); err != nil {
		t.Fatal(err)
	}
	runs := countAction(fw, "count")

	// 10 µs cooldown, 1 µs sampling: 10 samples per window.
	_, err := fw.InstallTriggerSpec(0, TriggerSpec{
		DSID: 0, Stat: "miss_rate", Op: core.OpGT, Value: 300,
		Level: true, Action: "count", Cooldown: 10 * sim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	cp.SetStat(0, "miss_rate", 500) // persistently bad

	fireStorm(e, cp, 40, sim.Microsecond)

	if fw.TriggersHandled == 0 {
		t.Fatal("trigger never handled")
	}
	// 40 interrupts at 1 µs spacing with a 10 µs cooldown: the action
	// runs on the 1st and then every 10th interrupt — a handful of
	// runs, not 40.
	if *runs >= 20 {
		t.Fatalf("cooldown did not pace the storm: action ran %d times over 40 samples", *runs)
	}
	if *runs < 2 {
		t.Fatalf("cooldown over-suppressed: action ran %d times, want re-runs after each window", *runs)
	}
	if fw.TriggersSuppressed == 0 {
		t.Fatal("no suppressed firings counted")
	}
	if got := uint64(*runs) + fw.TriggersSuppressed; got != 40 {
		t.Fatalf("handled(%d) + suppressed(%d) = %d interrupts, want 40", *runs, fw.TriggersSuppressed, got)
	}

	// The suppression count is a statistic on the LDom's subtree and
	// must agree with the firmware counter.
	out, err := fw.FS().ReadFile("/sys/cpa/cpa0/ldoms/ldom0/statistics/trig_suppressed")
	if err != nil {
		t.Fatalf("trig_suppressed stat: %v", err)
	}
	if want := strconv.FormatUint(fw.TriggersSuppressed, 10); out != want {
		t.Fatalf("trig_suppressed = %q, want %q", out, want)
	}
}

// TestNoCooldownPreservesLegacyDispatch pins the default behavior:
// with no cooldown configured, every interrupt runs its action (the
// historical semantics every existing test and experiment relies on).
func TestNoCooldownPreservesLegacyDispatch(t *testing.T) {
	e, fw, _, cp, _ := newFirmware(t)
	if _, err := fw.CreateLDom(LDomSpec{Name: "victim"}); err != nil {
		t.Fatal(err)
	}
	runs := countAction(fw, "count")
	_, err := fw.InstallTriggerSpec(0, TriggerSpec{
		DSID: 0, Stat: "miss_rate", Op: core.OpGT, Value: 300,
		Level: true, Action: "count",
	})
	if err != nil {
		t.Fatal(err)
	}
	cp.SetStat(0, "miss_rate", 500)
	fireStorm(e, cp, 10, sim.Microsecond)

	if *runs != 10 || fw.TriggersSuppressed != 0 {
		t.Fatalf("legacy dispatch changed: runs=%d suppressed=%d, want 10/0", *runs, fw.TriggersSuppressed)
	}
}

// TestConfigTriggerCooldownAppliesToPardtrigger proves the operator
// path picks up the firmware-wide default cooldown.
func TestConfigTriggerCooldownAppliesToPardtrigger(t *testing.T) {
	e := sim.NewEngine()
	fw := NewFirmware(e, Config{HandlerLatency: sim.Microsecond, TriggerCooldown: 50 * sim.Microsecond}, nil)
	fw.SetJournal(telemetry.NewJournal(e, 64))
	cp := cachePlane(e)
	fw.Mount(core.NewCPA(cp, 0))
	if _, err := fw.CreateLDom(LDomSpec{Name: "x"}); err != nil {
		t.Fatal(err)
	}
	runs := countAction(fw, "count")
	if _, err := fw.Sh("pardtrigger cpa0 -ldom=0 -stats=miss_rate -cond=gt,300 -action=count"); err != nil {
		t.Fatal(err)
	}
	// Force the trigger level-sensitive through MMIO so it re-fires
	// every sample; only the config cooldown stands between the storm
	// and the action.
	cpa, err := fw.CPA(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := cpa.WriteEntry(0, core.TrigColLevel, core.SelTrigger, 1); err != nil {
		t.Fatal(err)
	}
	cp.SetStat(0, "miss_rate", 400)
	fireStorm(e, cp, 20, sim.Microsecond)

	if *runs >= 20 {
		t.Fatalf("Config.TriggerCooldown ignored: %d runs for 20 samples", *runs)
	}
	if fw.TriggersSuppressed == 0 {
		t.Fatal("no suppressions recorded under config cooldown")
	}
	if !strings.Contains(fw.MustSh("log"), "trigger_suppressed") {
		t.Fatal("suppression not logged")
	}
}
