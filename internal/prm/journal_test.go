package prm

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestJournalRecordsSuppressedFirings is the journal-driven regression
// test for the re-fire storm fix and the rate limit: every swallowed
// interrupt must land in the audit journal as a trigger_suppressed
// event carrying the statistic's value, the time since the last run
// and, in its detail, what suppressed it; and the journaled
// fired/suppressed split must reconcile exactly with the firmware
// counters. A cooldown suppression comes inside the window; a
// rate-limited one comes after it, so the two kinds are told apart by
// their detail.
func TestJournalRecordsSuppressedFirings(t *testing.T) {
	e, fw, _, cp, _ := newFirmware(t)
	j := telemetry.NewJournal(e, 256)
	fw.SetJournal(j)
	if _, err := fw.CreateLDom(LDomSpec{Name: "victim"}); err != nil {
		t.Fatal(err)
	}
	countAction(fw, "count")
	countAction(fw, "paced")

	const cooldown = 10 * sim.Microsecond
	if _, err := fw.InstallTriggerSpec(0, TriggerSpec{
		DSID: 0, Stat: "miss_rate", Op: core.OpGT, Value: 300,
		Level: true, Action: "count", Cooldown: cooldown,
	}); err != nil {
		t.Fatal(err)
	}
	// The second trigger on the same condition runs at most 3 times in
	// any 20 us, with a 2 us cooldown.
	const pacedCooldown = 2 * sim.Microsecond
	if _, err := fw.InstallTriggerSpec(0, TriggerSpec{
		DSID: 0, Stat: "miss_rate", Op: core.OpGT, Value: 300,
		Level: true, Action: "paced", Cooldown: pacedCooldown,
		LimitN: 3, LimitPer: 20 * sim.Microsecond,
	}); err != nil {
		t.Fatal(err)
	}
	cp.SetStat(0, "miss_rate", 500) // persistently bad

	fireStorm(e, cp, 40, sim.Microsecond)

	if fw.TriggersSuppressed == 0 {
		t.Fatal("storm produced no suppressions")
	}

	var fired, suppressed, rateLimited uint64
	for i := 0; i < j.Len(); i++ {
		ev := j.At(i)
		switch ev.Kind {
		case telemetry.KindTriggerFired:
			fired++
		case telemetry.KindTriggerSuppress:
			suppressed++
			if ev.Name != "miss_rate" || ev.Plane != "cpa0" || ev.DS != 0 {
				t.Fatalf("event %d: wrong identity %q/%q/ds%d", ev.Seq, ev.Plane, ev.Name, ev.DS)
			}
			if ev.New != 500 {
				t.Fatalf("event %d: statistic value %d, want 500", ev.Seq, ev.New)
			}
			switch ev.Detail {
			case "suppressed: action count on cooldown 10us":
				if ev.Old >= uint64(cooldown) {
					t.Fatalf("event %d: suppressed on cooldown with since_last=%d >= cooldown %d", ev.Seq, ev.Old, cooldown)
				}
			case "suppressed: action paced on cooldown 2us":
				if ev.Old >= uint64(pacedCooldown) {
					t.Fatalf("event %d: suppressed on cooldown with since_last=%d >= cooldown %d", ev.Seq, ev.Old, pacedCooldown)
				}
			case "suppressed: action paced over rate limit 3 per 20us":
				rateLimited++
				if ev.Old < uint64(pacedCooldown) {
					t.Fatalf("event %d: rate-limited inside the cooldown (since_last=%d < %d)", ev.Seq, ev.Old, pacedCooldown)
				}
			default:
				t.Fatalf("event %d: detail %q names neither the cooldown nor the rate limit", ev.Seq, ev.Detail)
			}
		}
	}
	if rateLimited == 0 {
		t.Fatal("the rate limit suppressed nothing")
	}
	if fired != fw.TriggersHandled {
		t.Fatalf("journal has %d fired events, firmware handled %d", fired, fw.TriggersHandled)
	}
	if suppressed != fw.TriggersSuppressed {
		t.Fatalf("journal has %d suppressed events, firmware suppressed %d", suppressed, fw.TriggersSuppressed)
	}
	if fired+suppressed != 80 {
		t.Fatalf("journal accounts for %d of 80 interrupts", fired+suppressed)
	}
}

// TestJournalParamWriteOrigins proves origin attribution end to end at
// the firmware layer: echo-driven writes journal under the ambient
// origin, trigger-action writes under the binding's install-time
// origin.
func TestJournalParamWriteOrigins(t *testing.T) {
	e, fw, _, cp, _ := newFirmware(t)
	j := telemetry.NewJournal(e, 64)
	journalParams(fw, j, cp)
	if _, err := fw.CreateLDom(LDomSpec{Name: "x"}); err != nil {
		t.Fatal(err)
	}

	fw.WithOrigin("console", func() {
		if _, err := fw.Sh("echo 0x00FF > /sys/cpa/cpa0/ldoms/ldom0/parameters/waymask"); err != nil {
			t.Fatal(err)
		}
	})

	fw.RegisterAction("shrink", func(fw *Firmware, n core.Notification) error {
		cpa, err := fw.CPA(0)
		if err != nil {
			return err
		}
		cpa.Plane.SetParam(n.DSID, "waymask", 0x000F)
		return nil
	})
	fw.WithOrigin("pardctl", func() {
		if _, err := fw.Sh("pardtrigger cpa0 -ldom=0 -stats=miss_rate -cond=gt,300 -action=shrink"); err != nil {
			t.Fatal(err)
		}
	})
	cp.SetStat(0, "miss_rate", 500)
	cp.Evaluate(0)
	e.Run(e.Now() + sim.Millisecond)

	byOrigin := map[string]int{}
	for i := 0; i < j.Len(); i++ {
		ev := j.At(i)
		if ev.Kind == telemetry.KindParamWrite && ev.Name == "waymask" {
			byOrigin[ev.Origin]++
		}
	}
	if byOrigin["console"] != 1 {
		t.Fatalf("console-origin waymask writes = %d, want 1 (journal: %v)", byOrigin["console"], byOrigin)
	}
	if byOrigin["pardctl"] == 0 {
		t.Fatalf("trigger action's write not attributed to installer origin (journal: %v)", byOrigin)
	}
}

// TestJournalRecordsShellTriggerInstall: a trigger bound through the
// shell (pardtrigger, which the built-in guard also uses) leaves exactly
// one trigger_install event, under the ambient origin and before any
// firing it explains. Policy installs and refused installs leave none.
func TestJournalRecordsShellTriggerInstall(t *testing.T) {
	e, fw, _, cp, _ := newFirmware(t)
	j := telemetry.NewJournal(e, 64)
	fw.SetJournal(j)
	if _, err := fw.CreateLDom(LDomSpec{Name: "x"}); err != nil {
		t.Fatal(err)
	}
	countAction(fw, "count")
	if _, err := fw.Sh("pardtrigger cpa0 -ldom=0 -stats=no_such_stat -cond=gt,300 -action=count"); err == nil {
		t.Fatal("pardtrigger on an unknown statistic succeeded")
	}
	if _, err := fw.InstallTriggerSpec(0, TriggerSpec{DSID: 0, Stat: "miss_rate", Op: core.OpGT, Value: 900, Action: "count"}); err != nil {
		t.Fatal(err)
	}
	fw.WithOrigin("pardctl", func() {
		if _, err := fw.Sh("pardtrigger cpa0 -ldom=0 -stats=miss_rate -cond=gt,300 -action=count"); err != nil {
			t.Fatal(err)
		}
	})
	cp.SetStat(0, "miss_rate", 500)
	cp.Evaluate(0)
	e.Run(e.Now() + sim.Millisecond)

	var installs []telemetry.Event
	firstFired := -1
	for i := 0; i < j.Len(); i++ {
		switch ev := j.At(i); ev.Kind {
		case telemetry.KindTriggerInstall:
			installs = append(installs, ev)
		case telemetry.KindTriggerFired:
			if firstFired < 0 {
				firstFired = i
			}
			if len(installs) == 0 {
				t.Fatalf("trigger_fired #%d precedes any trigger_install", ev.Seq)
			}
		}
	}
	if len(installs) != 1 {
		t.Fatalf("journal has %d trigger_install events, want 1: %+v", len(installs), installs)
	}
	if firstFired < 0 {
		t.Fatal("the installed trigger never fired")
	}
	ev := installs[0]
	if ev.Origin != "pardctl" || ev.Plane != "cpa0" || ev.DS != 0 || ev.Name != "miss_rate" ||
		ev.Detail != "cond=gt,300 action=count slot=1" {
		t.Fatalf("trigger_install event %+v", ev)
	}
}

// TestJournalRecordsEveryFirmwareVerb: the firmware keeps no text log
// of its own; /log/triggers.log renders the journal. So every verb that
// log used to report must land in the journal, each exactly once: LDom
// create and destroy, a firing with and without a bound action, a
// suppressed firing, an unregistered and a failing action, and policy
// load, reload and unload with the schedule installs and restores they
// cause.
func TestJournalRecordsEveryFirmwareVerb(t *testing.T) {
	e, fw, _, cp, mp := newFirmware(t)
	mp.SetSchedulerHook([]string{"frfcfs", "strict", "edf"}, nil)
	for _, name := range []string{"a", "b", "c", "d"} {
		if _, err := fw.CreateLDom(LDomSpec{Name: name}); err != nil {
			t.Fatal(err)
		}
	}
	j := telemetry.NewJournal(e, 256)
	fw.SetJournal(j)
	countAction(fw, "count")
	fw.RegisterAction("fail", func(*Firmware, core.Notification) error { return errors.New("boom") })

	install := func(ds core.DSID, action string) {
		t.Helper()
		if _, err := fw.InstallTriggerSpec(0, TriggerSpec{
			DSID: ds, Stat: "miss_rate", Op: core.OpGT, Value: 300,
			Level: true, Action: action, Cooldown: 10 * sim.Microsecond,
		}); err != nil {
			t.Fatal(err)
		}
		cp.SetStat(ds, "miss_rate", 500)
	}
	fire := func(ds core.DSID) {
		cp.Evaluate(ds)
		e.Run(e.Now() + 2*sim.Microsecond)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// Each step journals the kinds in want, each that many times; its
	// event of kind must also pass check.
	steps := []struct {
		name  string
		do    func()
		want  map[string]int
		kind  string
		check func(telemetry.Event) bool
	}{
		{"ldom create", func() {
			fw.WithOrigin("console", func() { _, err := fw.CreateLDom(LDomSpec{Name: "e"}); must(err) })
		}, map[string]int{telemetry.KindLDomCreate: 1}, telemetry.KindLDomCreate, func(ev telemetry.Event) bool {
			return ev.DS == 4 && ev.Name == "e" && ev.Origin == "console"
		}},
		{"fired with an action", func() { install(0, "count"); fire(0) },
			map[string]int{telemetry.KindTriggerFired: 1}, telemetry.KindTriggerFired, func(ev telemetry.Event) bool {
				return ev.DS == 0 && ev.Detail == "action count"
			}},
		{"suppressed", func() { fire(0) },
			map[string]int{telemetry.KindTriggerSuppress: 1}, telemetry.KindTriggerSuppress, func(ev telemetry.Event) bool {
				return ev.DS == 0 && ev.New == 500 && ev.Detail == "suppressed: action count on cooldown 10us"
			}},
		{"fired with no action", func() {
			must(cp.InstallTrigger(7, core.Trigger{DSID: 1, Op: core.OpGT, Value: 300, Enabled: true}))
			cp.SetStat(1, "miss_rate", 500)
			fire(1)
		}, map[string]int{telemetry.KindTriggerFired: 1}, telemetry.KindTriggerFired, func(ev telemetry.Event) bool {
			return ev.DS == 1 && ev.Detail == "no action bound"
		}},
		{"unregistered action", func() { install(2, "missing"); fire(2) },
			map[string]int{telemetry.KindError: 1, telemetry.KindTriggerFired: 1}, telemetry.KindError, func(ev telemetry.Event) bool {
				return ev.DS == 2 && ev.Name == "missing" && ev.Detail == `action "missing" not registered`
			}},
		{"failing action", func() { install(3, "fail"); fire(3) },
			map[string]int{telemetry.KindError: 1, telemetry.KindTriggerFired: 1}, telemetry.KindError, func(ev telemetry.Event) bool {
				return ev.DS == 3 && ev.Name == "fail" && ev.Detail == `action "fail" failed: boom`
			}},
		{"policy load", func() { must(fw.LoadPolicy("p", "schedule mem edf\n")) },
			map[string]int{telemetry.KindPolicyLoad: 1, telemetry.KindSchedInstall: 1}, telemetry.KindSchedInstall, func(ev telemetry.Event) bool {
				return ev.Name == "edf" && ev.Detail == "displaced frfcfs"
			}},
		{"policy reload", func() { must(fw.ReloadPolicy("p", "schedule mem strict\n")) },
			map[string]int{telemetry.KindPolicyReload: 1, telemetry.KindSchedRestore: 1, telemetry.KindSchedInstall: 1},
			telemetry.KindSchedRestore, func(ev telemetry.Event) bool { return ev.Name == "frfcfs" }},
		{"policy unload", func() { must(fw.UnloadPolicy("p")) },
			map[string]int{telemetry.KindPolicyUnload: 1, telemetry.KindSchedRestore: 1}, telemetry.KindPolicyUnload, func(ev telemetry.Event) bool {
				return ev.Name == "p"
			}},
		{"ldom destroy", func() { must(fw.DestroyLDom(4)) },
			map[string]int{telemetry.KindLDomDestroy: 1}, telemetry.KindLDomDestroy, func(ev telemetry.Event) bool {
				return ev.DS == 4 && ev.Name == "e" && ev.Origin == "firmware"
			}},
	}
	for _, st := range steps {
		seq := j.NextSeq()
		st.do()
		evs := j.Since(seq, nil)
		got := map[string]int{}
		for _, ev := range evs {
			got[ev.Kind]++
			if ev.Kind == st.kind && !st.check(ev) {
				t.Errorf("%s: wrong %s event %+v", st.name, ev.Kind, ev)
			}
		}
		if !reflect.DeepEqual(got, st.want) {
			t.Errorf("%s: journaled %v, want %v", st.name, got, st.want)
		}
	}
	if j.Dropped() != 0 {
		t.Fatal("test premise broken: the journal overflowed")
	}
	if lines := strings.Count(fw.MustSh("log"), "\n"); lines != j.Len() {
		t.Fatalf("log renders %d lines for %d journal events", lines, j.Len())
	}
}
