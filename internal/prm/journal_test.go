package prm

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestJournalRecordsSuppressedFirings is the journal-driven regression
// test for the re-fire storm fix: every swallowed interrupt must land
// in the audit journal as a trigger_suppressed event carrying the
// cooldown window and the time since the last run, and the journaled
// fired/suppressed split must reconcile exactly with the firmware
// counters.
func TestJournalRecordsSuppressedFirings(t *testing.T) {
	e, fw, _, cp, _ := newFirmware(t)
	j := telemetry.NewJournal(e, 256)
	fw.SetJournal(j)
	if _, err := fw.CreateLDom(LDomSpec{Name: "victim"}); err != nil {
		t.Fatal(err)
	}
	countAction(fw, "count")

	const cooldown = 10 * sim.Microsecond
	if _, err := fw.InstallTriggerSpec(0, TriggerSpec{
		DSID: 0, Stat: "miss_rate", Op: core.OpGT, Value: 300,
		Level: true, Action: "count", Cooldown: cooldown,
	}); err != nil {
		t.Fatal(err)
	}
	cp.SetStat(0, "miss_rate", 500) // persistently bad

	fireStorm(e, cp, 40, sim.Microsecond)

	if fw.TriggersSuppressed == 0 {
		t.Fatal("storm produced no suppressions")
	}

	var fired, suppressed uint64
	for i := 0; i < j.Len(); i++ {
		ev := j.At(i)
		switch ev.Kind {
		case telemetry.KindTriggerFired:
			fired++
		case telemetry.KindTriggerSuppress:
			suppressed++
			if ev.New != uint64(cooldown) {
				t.Fatalf("event %d: cooldown window %d, want %d", ev.Seq, ev.New, uint64(cooldown))
			}
			if ev.Old >= uint64(cooldown) {
				t.Fatalf("event %d: suppressed with since_last=%d >= cooldown %d", ev.Seq, ev.Old, uint64(cooldown))
			}
			if ev.Name != "miss_rate" || ev.Plane != "cpa0" || ev.DS != 0 {
				t.Fatalf("event %d: wrong identity %q/%q/ds%d", ev.Seq, ev.Plane, ev.Name, ev.DS)
			}
			if !strings.Contains(ev.Detail, "suppressed") || !strings.Contains(ev.Detail, "count") {
				t.Fatalf("event %d: detail %q does not name the suppressed action", ev.Seq, ev.Detail)
			}
		}
	}
	if fired != fw.TriggersHandled {
		t.Fatalf("journal has %d fired events, firmware handled %d", fired, fw.TriggersHandled)
	}
	if suppressed != fw.TriggersSuppressed {
		t.Fatalf("journal has %d suppressed events, firmware suppressed %d", suppressed, fw.TriggersSuppressed)
	}
	if fired+suppressed != 40 {
		t.Fatalf("journal accounts for %d of 40 interrupts", fired+suppressed)
	}
}

// TestJournalParamWriteOrigins proves origin attribution end to end at
// the firmware layer: echo-driven writes journal under the ambient
// origin, trigger-action writes under the binding's install-time
// origin.
func TestJournalParamWriteOrigins(t *testing.T) {
	e, fw, _, cp, _ := newFirmware(t)
	j := telemetry.NewJournal(e, 64)
	fw.SetJournal(j)
	// The firmware-layer tests mount bare planes; observe writes the way
	// pard.attachTelemetry does.
	cp.SetParamObserver(func(ds core.DSID, name string, old, new uint64) {
		j.Record(telemetry.Event{
			Kind: telemetry.KindParamWrite, Origin: fw.Origin(),
			Plane: "cpa0", DS: ds, Name: name, Old: old, New: new,
		})
	})
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
