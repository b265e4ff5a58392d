package pard

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

// Each plane's statistics window on the server config the figures and
// the benchmark use. Only the LLC and the IDE inherit
// Config.SampleInterval; a change to that inheritance moves every
// windowed statistic and trigger, so it has to show up here first.
func TestPlaneSampleIntervals(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SampleInterval = 50 * Microsecond
	cfg.Crossbar = true
	sys := NewSystem(cfg)
	for _, c := range []struct {
		plane *core.Plane
		want  Tick
	}{
		{sys.LLC.Plane(), 50 * Microsecond},
		{sys.IDE.Plane(), 50 * Microsecond},
		{sys.Mem.Plane(), 100 * Microsecond},
		{sys.Xbar.Plane(), 100 * Microsecond},
		{sys.NIC.Plane(), 0},
		{sys.Bridge.Plane(), 0},
	} {
		if got := c.plane.SampleInterval(); got != c.want {
			t.Errorf("%s samples every %v, want %v", c.plane.Ident(), got, c.want)
		}
	}
}

// A statistics window dies with its row: once an LDom's rows are
// deleted, no sampler re-creates them unless the DS-id sends new
// traffic. The LLC, memory and IDE samplers used to re-publish the
// deleted DS-id's held miss rate or zero bandwidth from windows they
// kept in their own maps.
func TestDeletedStatsRowStaysDeleted(t *testing.T) {
	sys := NewSystem(DefaultConfig())
	const ds core.DSID = 9
	now := sys.Engine.Now()
	sys.LLC.Request(core.NewPacket(sys.IDs, core.KindMemRead, ds, 0x1000, 64, now))
	sys.Mem.Request(core.NewPacket(sys.IDs, core.KindMemRead, ds, 0x2000, 64, now))
	sys.IDE.Request(core.NewPacket(sys.IDs, core.KindPIOWrite, ds, 0, 4096, now))
	sys.Run(Millisecond)
	planes := []*core.Plane{sys.LLC.Plane(), sys.Mem.Plane(), sys.IDE.Plane()}
	for _, p := range planes {
		if !p.Stats().HasRow(ds) {
			t.Fatalf("%s has no statistics row for ds%d after its traffic", p.Ident(), ds)
		}
		p.DeleteRow(ds)
	}
	sys.Run(Millisecond)
	for _, p := range planes {
		if p.Stats().HasRow(ds) {
			t.Errorf("%s re-created ds%d's statistics row with no new traffic", p.Ident(), ds)
		}
	}
}

// A plane that runs no sampler never evaluates its trigger table, so
// the firmware refuses triggers on it — from the shell and from a
// .pard load alike — instead of installing one that can never fire.
func TestTriggerOnUnsampledPlaneRefused(t *testing.T) {
	sys := NewSystem(DefaultConfig())
	if _, err := sys.CreateLDom(LDomConfig{Name: "web", Cores: []int{0}}); err != nil {
		t.Fatal(err)
	}
	_, err := sys.Sh("pardtrigger cpa4 -ldom=0 -stats=tx_bytes -cond=gt,0")
	if err == nil {
		t.Fatal("pardtrigger installed a NIC trigger that nothing evaluates")
	}
	for _, want := range []string{"cpa4 (NIC_CP)", "cpa0, cpa1, cpa3"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}

	// The NIC rule fails compilation, so the LLC rule beside it never
	// installs either.
	src := `rule guard cpa llc ldom web: when miss_rate > 30% => waymask = 0xff00
rule net cpa nic ldom web: when tx_bytes > 0 => on mem priority = 1`
	if err := sys.LoadPolicy("mixed", src); err == nil || !strings.Contains(err.Error(), "NIC_CP") {
		t.Fatalf("policy with a NIC rule loaded: err = %v", err)
	}
	if got := sys.Firmware.Policies(); len(got) != 0 {
		t.Fatalf("failed load left policies %v", got)
	}
	if out, err := sys.Sh("ls /sys/cpa/cpa0/ldoms/ldom0/triggers"); err != nil || out != "" {
		t.Fatalf("failed load left trigger bindings %q (%v)", out, err)
	}
	for _, p := range []*core.Plane{sys.LLC.Plane(), sys.NIC.Plane()} {
		for slot := 0; slot < p.TriggerSlots(); slot++ {
			if tr, _ := p.Trigger(slot); tr.Enabled {
				t.Fatalf("%s trigger slot %d still enabled after the failed load", p.Ident(), slot)
			}
		}
	}
}

// The console's `policy validate` refuses a rule on a plane that runs
// no sampler, as `policy apply` of the same file does.
func TestConsoleValidateRefusesUnsampledPlane(t *testing.T) {
	sys := NewSystem(DefaultConfig())
	path := filepath.Join(t.TempDir(), "net.pard")
	src := "rule net cpa nic ldom web: when tx_bytes > 0 => on mem priority = 1\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Dispatch(sys, "create web 0"); err != nil {
		t.Fatal(err)
	}
	for _, cmd := range []string{"validate", "apply"} {
		out, err := Dispatch(sys, "policy "+cmd+" "+path)
		if err == nil {
			t.Fatalf("policy %s accepted a NIC rule: %q", cmd, out)
		}
		if !strings.Contains(err.Error(), "runs no statistics sampler") {
			t.Errorf("policy %s error %q does not name the missing sampler", cmd, err)
		}
	}
}

// LDom teardown deletes the LDom's plane rows and then flushes its LLC
// blocks; the flush must not re-create its LLC statistics row.
func TestTeardownLeavesNoLLCRow(t *testing.T) {
	s := NewSystem(goldenConfig())
	goldenServer(t, s, 42)
	s.Run(Millisecond)
	stats := s.LLC.Plane().Stats()
	if !stats.HasRow(2) || s.LLC.Occupancy(2) == 0 {
		t.Fatal("ds2 holds no LLC row or blocks before its teardown")
	}
	if err := s.Firmware.DestroyLDom(2); err != nil {
		t.Fatal(err)
	}
	if stats.HasRow(2) {
		t.Fatalf("DestroyLDom(2) left ds2's LLC statistics row (capacity %d)", s.LLC.Plane().Stat(2, "capacity"))
	}
	if n := s.LLC.Occupancy(2); n != 0 {
		t.Fatalf("ds2 owns %d LLC blocks after its teardown", n)
	}
}

// LDom teardown stops the LDom's cores and resets their tag registers
// before it deletes rows and flushes, so the dead DS-id issues nothing
// more.
func TestTeardownStopsCores(t *testing.T) {
	s := NewSystem(goldenConfig())
	goldenServer(t, s, 42)
	s.Run(Millisecond)
	c := s.Cores[2]
	if ds := c.Tag.Get(); ds != 2 {
		t.Fatalf("core 2 runs under %v before the teardown, want ds2", ds)
	}
	if err := s.Firmware.DestroyLDom(2); err != nil {
		t.Fatal(err)
	}
	ops := c.Loads + c.Stores
	s.Run(Millisecond)
	if n := c.Loads + c.Stores - ops; n != 0 {
		t.Errorf("core 2 issued %d loads and stores in the 1 ms after DestroyLDom(2), want 0", n)
	}
	if ds := c.Tag.Get(); ds != core.DSIDDefault {
		t.Errorf("core 2's tag register reads %v after the teardown, want %v", ds, core.DSIDDefault)
	}
}

// LDom teardown drops the LDom's interrupt routes, so the disk
// completions it left buffered interrupt no core, even after its core
// is handed to another LDom.
func TestTeardownClearsInterruptRoutes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IDE.QueueDepth = 4 // buffered writes complete after the teardown
	s := NewSystem(cfg)
	if _, err := Dispatch(s, "create a 0"); err != nil {
		t.Fatal(err)
	}
	if _, err := Dispatch(s, "workload 0 dd"); err != nil {
		t.Fatal(err)
	}
	s.Run(5 * Millisecond)
	before := s.InterruptsByCore[0]
	if before == 0 {
		t.Fatal("dd raised no interrupt on core 0 before the teardown")
	}
	if err := s.Firmware.DestroyLDom(0); err != nil {
		t.Fatal(err)
	}
	raised := s.APIC.Delivered + s.APIC.Dropped
	if _, err := Dispatch(s, "create b 0"); err != nil {
		t.Fatal(err)
	}
	s.Run(5 * Millisecond)
	if s.APIC.Delivered+s.APIC.Dropped == raised {
		t.Fatal("no interrupt reached the APIC after the teardown: the scenario no longer covers late completions")
	}
	if n := s.InterruptsByCore[0] - before; n != 0 {
		t.Errorf("core 0 took %d interrupts in the 5 ms after DestroyLDom(0), want 0", n)
	}
}

// Console `create` bounds each LDom to its 2 GiB memory window, so an
// LDom cannot address its neighbour's window.
func TestConsoleCreateBoundsMemory(t *testing.T) {
	sys := NewSystem(DefaultConfig())
	for _, line := range []string{"create a 0", "create b 1"} {
		if _, err := Dispatch(sys, line); err != nil {
			t.Fatal(err)
		}
	}
	for path, want := range map[string]string{
		"/sys/cpa/cpa1/ldoms/ldom0/parameters/addr_limit": "2147483648",
		"/sys/cpa/cpa1/ldoms/ldom1/parameters/addr_base":  "2147483648",
	} {
		if got := sys.Firmware.MustSh("cat " + path); got != want {
			t.Errorf("%s = %s, want %s", path, got, want)
		}
	}
	a := sys.Firmware.LDoms()[0].DSID
	sys.Mem.Request(core.NewPacket(sys.IDs, core.KindMemRead, a, 2<<30, 64, sys.Engine.Now()))
	sys.Run(Microsecond)
	if sys.Mem.Violations != 1 {
		t.Fatalf("ldom0 access at 2 GiB counted %d violations, want 1", sys.Mem.Violations)
	}
}
