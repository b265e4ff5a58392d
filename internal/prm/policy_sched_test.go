package prm

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// schedFirmware builds a firmware whose memory plane carries a
// programmable scheduling hook (standing in for the DRAM controller's
// registration), while the cache plane does not.
func schedFirmware(t *testing.T) (*Firmware, func() string) {
	t.Helper()
	e := sim.NewEngine()
	fw := NewFirmware(e, Config{HandlerLatency: sim.Microsecond}, nil)
	cp := cachePlane(e)
	mp := memPlane(e)
	algo := "frfcfs"
	mp.SetSchedulerHook([]string{"frfcfs", "strict", "edf"}, func(a string) { algo = a })
	fw.Mount(core.NewCPA(cp, 0))
	fw.Mount(core.NewCPA(mp, 0))
	for _, name := range []string{"web", "batch"} {
		if _, err := fw.CreateLDom(LDomSpec{Name: name}); err != nil {
			t.Fatal(err)
		}
	}
	return fw, func() string { return algo }
}

// TestSchedulerDeviceNode: a mounted plane with a scheduling hook grows
// a /sys/cpa/cpaN/scheduler node; read reports the algorithm in force,
// write installs one. Planes without a hook get no node.
func TestSchedulerDeviceNode(t *testing.T) {
	fw, algo := schedFirmware(t)
	out, err := fw.FS().ReadFile("/sys/cpa/cpa1/scheduler")
	if err != nil || out != "frfcfs" {
		t.Fatalf("scheduler node = %q, %v", out, err)
	}
	if err := fw.FS().WriteFile("/sys/cpa/cpa1/scheduler", "edf\n"); err != nil {
		t.Fatal(err)
	}
	if algo() != "edf" {
		t.Fatalf("algorithm after write = %q, want edf", algo())
	}
	if err := fw.FS().WriteFile("/sys/cpa/cpa1/scheduler", "cfq"); err == nil {
		t.Fatal("unknown algorithm accepted through the device node")
	}
	if fw.FS().Exists("/sys/cpa/cpa0/scheduler") {
		t.Fatal("plane without a scheduling hook grew a scheduler node")
	}
}

// TestPolicyScheduleInstallAndRestore: loading a policy with a
// `schedule` directive installs the algorithm, records the displaced
// one, and unloading restores it.
func TestPolicyScheduleInstallAndRestore(t *testing.T) {
	fw, algo := schedFirmware(t)
	src := "schedule mem edf\ncpa mem ldom web: when avg_qlat > 100 => priority = 7"
	if err := fw.LoadPolicy("lat", src); err != nil {
		t.Fatal(err)
	}
	if algo() != "edf" {
		t.Fatalf("algorithm after load = %q, want edf", algo())
	}
	out, err := fw.FS().ReadFile("/sys/cpa/policy/lat/schedules")
	if err != nil || out != "cpa1 edf (was frfcfs)" {
		t.Fatalf("schedules node = %q, %v", out, err)
	}
	expl, err := fw.ExplainPolicies("lat")
	if err != nil || !strings.Contains(expl, `lat/schedule mem edf: installed on cpa1 (restores "frfcfs" on unload)`) {
		t.Fatalf("explain missing schedule line:\n%s\n%v", expl, err)
	}
	if err := fw.UnloadPolicy("lat"); err != nil {
		t.Fatal(err)
	}
	if algo() != "frfcfs" {
		t.Fatalf("algorithm after unload = %q, want frfcfs restored", algo())
	}
}

// TestPolicyScheduleConflictsAndReload: two loaded policies may not
// schedule the same plane; a reload swaps the installed algorithm and
// keeps the restore chain anchored at the pre-policy algorithm.
func TestPolicyScheduleConflictsAndReload(t *testing.T) {
	fw, algo := schedFirmware(t)
	if err := fw.LoadPolicy("p1", "schedule mem edf"); err != nil {
		t.Fatal(err)
	}
	err := fw.LoadPolicy("p2", "schedule dram strict")
	if err == nil || !strings.Contains(err.Error(), "both install a scheduler") {
		t.Fatalf("conflict error = %v", err)
	}
	if algo() != "edf" {
		t.Fatalf("rejected load disturbed the scheduler: %q", algo())
	}

	if err := fw.ReloadPolicy("p1", "schedule mem strict"); err != nil {
		t.Fatal(err)
	}
	if algo() != "strict" {
		t.Fatalf("algorithm after reload = %q, want strict", algo())
	}
	if err := fw.UnloadPolicy("p1"); err != nil {
		t.Fatal(err)
	}
	if algo() != "frfcfs" {
		t.Fatalf("algorithm after unload = %q, want frfcfs (pre-policy default)", algo())
	}
}

// TestPolicyScheduleRollbackOnFailedInstall: when trigger installation
// fails after a schedule already applied, the partial-install rollback
// restores the displaced algorithm. LoadPolicy's capacity pre-check
// normally keeps installPolicy from failing this way, so the test
// drives installPolicy directly against a full trigger table.
func TestPolicyScheduleRollbackOnFailedInstall(t *testing.T) {
	fw, algo := schedFirmware(t)
	src := "schedule mem edf\ncpa mem ldom web: when avg_qlat > 100 => priority = 7"
	prog, err := fw.compilePolicy("lat", src)
	if err != nil {
		t.Fatal(err)
	}
	// Fill cpa1's trigger table so the rule's trigger cannot install.
	cpa, err := fw.CPA(1)
	if err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < cpa.Plane.TriggerSlots(); slot++ {
		if err := cpa.WriteEntry(core.DSID(slot), core.TrigColEnabled, core.SelTrigger, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fw.installPolicy("lat", src, prog); err == nil {
		t.Fatal("install succeeded with a full trigger table")
	}
	if algo() != "frfcfs" {
		t.Fatalf("failed install left scheduler at %q, want frfcfs restored", algo())
	}
}
