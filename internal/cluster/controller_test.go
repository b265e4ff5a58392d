package cluster

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/policy"
	"repro/internal/prm"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

type nopPlatform struct{}

func (nopPlatform) SetCoreTag(int, core.DSID)                {}
func (nopPlatform) StopCore(int)                             {}
func (nopPlatform) RouteInterrupt(core.DSID, uint8, int)     {}
func (nopPlatform) ClearRoutes(core.DSID)                    {}
func (nopPlatform) BindVNIC(uint64, core.DSID, uint64) error { return nil }
func (nopPlatform) UnbindVNIC(uint64)                        {}
func (nopPlatform) FlushLDom(core.DSID)                      {}

// newMember builds a minimal federated server: a firmware with cache
// and memory planes mounted, "svc" and "batch" LDoms, and attached
// journal + telemetry registry — the same shape pard.System wires, in
// miniature.
func newMember(t *testing.T, e *sim.Engine, name string) (Server, *core.Plane) {
	t.Helper()
	fw := prm.NewFirmware(e, prm.Config{HandlerLatency: sim.Microsecond}, nopPlatform{})
	cp := core.NewPlane(e, "CACHE_CP", core.PlaneTypeCache,
		core.NewTable(core.Column{Name: "waymask", Writable: true, Default: 0xFFFF}),
		core.NewTable(core.Column{Name: "miss_rate"}, core.Column{Name: "capacity"}), 8)
	mp := core.NewPlane(e, "MEM_CP", core.PlaneTypeMemory,
		core.NewTable(
			core.Column{Name: "addr_base", Writable: true},
			core.Column{Name: "priority", Writable: true},
			core.Column{Name: "rowbuf", Writable: true},
			core.Column{Name: "addr_limit", Writable: true}),
		core.NewTable(core.Column{Name: "avg_qlat"}), 8)
	cp.Sample(sim.Second) // the firmware needs a sampler; no test runs long enough to reach it
	mp.Sample(sim.Second)
	fw.Mount(core.NewCPA(cp, 0))
	fw.Mount(core.NewCPA(mp, 0))
	for _, ld := range []string{"svc", "batch"} {
		if _, err := fw.CreateLDom(prm.LDomSpec{Name: ld}); err != nil {
			t.Fatal(err)
		}
	}
	j := telemetry.NewJournal(e, 64)
	reg := telemetry.NewRegistry(e, 0, 16)
	fw.SetJournal(j)
	return Server{Name: name, Firmware: fw, Telemetry: reg, Journal: j}, cp
}

func testController(t *testing.T) (*sim.Engine, *Controller, []*core.Plane, *fabric.Switch) {
	t.Helper()
	e := sim.NewEngine()
	topo := Topology{Racks: 1, ServersPerRack: 2}
	topo.Normalize()
	c := NewController(e, topo)
	var planes []*core.Plane
	for s := 0; s < topo.ServersPerRack; s++ {
		srv, cp := newMember(t, e, topo.ServerName(0, s))
		if err := c.AttachServer(srv); err != nil {
			t.Fatal(err)
		}
		planes = append(planes, cp)
	}
	leaf := fabric.New(e, fabric.Config{Name: "leaf0"})
	if err := c.AttachSwitch("leaf0", leaf); err != nil {
		t.Fatal(err)
	}
	return e, c, planes, leaf
}

const memtierSrc = `
intent memtier {
    target miss_rate <= 30%;
    protect ldom svc;
    fabric weight ldom svc = 4;
}
`

func TestControllerApplyIntentFederates(t *testing.T) {
	_, c, _, leaf := testController(t)

	f, err := policy.Parse("memtier.pard", memtierSrc)
	if err != nil {
		t.Fatal(err)
	}
	cis, err := c.CompileIntents(f, policy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cis) != 1 || len(cis[0].Policies) != 2 {
		t.Fatalf("compiled %d intents / %d policies, want 1 / 2", len(cis), len(cis[0].Policies))
	}
	if err := c.ApplyIntent(cis[0]); err != nil {
		t.Fatal(err)
	}

	// Every member runs the intent's policy set.
	for _, s := range c.Servers() {
		pols := s.Firmware.Policies()
		if len(pols) != 1 || pols[0] != "intent-memtier" {
			t.Fatalf("server %s policies = %v", s.Name, pols)
		}
		// The member's own journal attributes the load to the cluster.
		found := false
		for i := 0; i < s.Journal.Len(); i++ {
			if ev := s.Journal.At(i); ev.Kind == telemetry.KindPolicyLoad && ev.Origin == "cluster:memtier" {
				found = true
			}
		}
		if !found {
			t.Fatalf("server %s journal lacks cluster-origin policy load", s.Name)
		}
	}

	// The fabric write landed and the controller journaled everything:
	// two policy loads plus one switch parameter write.
	if got := leaf.Plane().Param(0, fabric.ParamWeight); got != 4 {
		t.Fatalf("leaf0 weight[svc] = %d, want 4", got)
	}
	if c.Journal.Len() != 3 {
		t.Fatalf("controller journal has %d events, want 3", c.Journal.Len())
	}
	pw := c.Journal.At(2)
	if pw.Kind != telemetry.KindParamWrite || pw.Plane != "leaf0" || pw.Origin != "cluster:memtier" {
		t.Fatalf("switch write event: %+v", pw)
	}
	if got := c.Applied; len(got) != 1 || got[0] != "memtier" {
		t.Fatalf("Applied = %v", got)
	}
}

func TestControllerApplyIntentFailsOnConflict(t *testing.T) {
	_, c, _, _ := testController(t)
	// A manually loaded policy already owns the waymask write on srv1,
	// so the fleet rollout must stop there with a named server.
	srv, _ := c.Server("rack0-srv1")
	err := srv.Firmware.LoadPolicy("manual",
		"cpa llc ldom svc: when capacity > 1 => waymask = 0x3")
	if err != nil {
		t.Fatal(err)
	}
	f, err := policy.Parse("memtier.pard", memtierSrc)
	if err != nil {
		t.Fatal(err)
	}
	cis, err := c.CompileIntents(f, policy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	err = c.ApplyIntent(cis[0])
	if err == nil || !strings.Contains(err.Error(), "rack0-srv1") {
		t.Fatalf("conflicting apply error = %v, want server name", err)
	}
}

// The cluster view renders the members' registries in place: each
// member's rows with its own trend, the sums of their latest samples,
// the switch counters, and the members' scrape count in the footer.
func TestControllerTopRendersMembers(t *testing.T) {
	_, c, _, leaf := testController(t)
	for i, s := range c.Servers() {
		v := 1.0
		s.Telemetry.AddGauge("prm.triggers_handled", func() float64 { return v })
		s.Telemetry.Scrape()
		v = float64(2 + i)
		s.Telemetry.Scrape()
	}
	leaf.Forwarded = 7

	row := func(name string, v float64, trend string) string {
		line := fmt.Sprintf("%-36s %14g", name, v)
		if trend != "" {
			line += "  " + trend
		}
		return line + "\n"
	}
	top := c.TopText("")
	for _, want := range []string{
		row("rack0-srv0.prm.triggers_handled", 2, "▁█"),
		row("rack0-srv1.prm.triggers_handled", 3, "▁█"),
		row("cluster.prm.triggers_handled", 5, ""),
		row("leaf0.fwd_frames", 7, ""),
		row("leaf0.drops", 0, ""),
		"5 series, 2 scrapes, interval 0 ticks",
	} {
		if !strings.Contains(top, want) {
			t.Fatalf("TopText lacks %q:\n%s", want, top)
		}
	}

	top = c.TopText("rack0-srv0")
	if !strings.Contains(top, row("rack0-srv0.prm.triggers_handled", 2, "▁█")) {
		t.Fatalf("TopText(-server) missing member series:\n%s", top)
	}
	if strings.Contains(top, "rack0-srv1.") || strings.Contains(top, "cluster.") {
		t.Fatalf("TopText(-server) leaks other rows:\n%s", top)
	}
}

func TestControllerJournalSelector(t *testing.T) {
	_, c, _, _ := testController(t)
	f, _ := policy.Parse("memtier.pard", memtierSrc)
	cis, err := c.CompileIntents(f, policy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ApplyIntent(cis[0]); err != nil {
		t.Fatal(err)
	}
	txt, err := c.JournalText("rack0-srv0", 10)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt, "cluster:memtier") {
		t.Fatalf("member journal text lacks cluster origin:\n%s", txt)
	}
	if _, err := c.JournalText("nope", 10); err == nil || !strings.Contains(err.Error(), "rack0-srv0") {
		t.Fatalf("unknown server error = %v, want member list", err)
	}
}

func TestControllerAttachRejectsDuplicates(t *testing.T) {
	_, c, _, _ := testController(t)
	srv, _ := c.Server("rack0-srv0")
	if err := c.AttachServer(*srv); err == nil {
		t.Fatal("duplicate server attach succeeded")
	}
	if err := c.AttachSwitch("leaf0", fabric.New(sim.NewEngine(), fabric.Config{Name: "x"})); err == nil {
		t.Fatal("duplicate switch attach succeeded")
	}
}

func TestTopologyValidate(t *testing.T) {
	base := Topology{Racks: 4, ServersPerRack: 2}
	base.Normalize()
	if base.Spines != 1 || base.Shards != 4 || base.RackLatency != DefaultLatency || base.FabricLatency != DefaultLatency {
		t.Fatalf("Normalize defaults: %+v", base)
	}
	if err := base.Validate(); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		mutate  func(*Topology)
		wantSub string
	}{
		{func(t *Topology) { t.Racks = 0 }, "at least 1 rack"},
		{func(t *Topology) { t.ServersPerRack = 0 }, "at least 1 server"},
		{func(t *Topology) { t.Spines = 0 }, "at least 1 spine"},
		{func(t *Topology) { t.Shards = 9 }, "out of range"},
	}
	for i, tc := range cases {
		tp := base
		tc.mutate(&tp)
		err := tp.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("case %d: Validate = %v, want substring %q", i, err, tc.wantSub)
		}
	}
}

func TestConnectHelpers(t *testing.T) {
	var links [][2]int
	record := func(i, j int) error { links = append(links, [2]int{i, j}); return nil }

	if err := ConnectRing(2, record); err != nil {
		t.Fatal(err)
	}
	if len(links) != 1 {
		t.Fatalf("2-node ring made %d links, want 1", len(links))
	}
	links = nil
	if err := ConnectRing(4, record); err != nil {
		t.Fatal(err)
	}
	if len(links) != 4 {
		t.Fatalf("4-node ring made %d links, want 4", len(links))
	}
	if err := ConnectRing(1, record); err == nil {
		t.Fatal("1-node ring accepted")
	}
}
