package policy

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// fakeReg mirrors the real platform's plane schemas for compile tests.
type fakeReg struct {
	ldoms map[string]core.DSID
	max   core.DSID
}

func (r *fakeReg) Planes() []PlaneInfo {
	return []PlaneInfo{
		{
			Index: 0, Ident: "CACHE_CP", Type: core.PlaneTypeCache,
			Params: []core.Column{{Name: "waymask", Writable: true, Default: 0xffff}},
			Stats: []core.Column{
				{Name: "hit_cnt"}, {Name: "miss_cnt"}, {Name: "miss_rate"}, {Name: "capacity"},
			},
			Scheds:  []string{"fifo"},
			Sampled: true,
		},
		{
			Index: 1, Ident: "MEM_CP", Type: core.PlaneTypeMemory,
			Params: []core.Column{
				{Name: "addr_base", Writable: true}, {Name: "priority", Writable: true},
				{Name: "rowbuf", Writable: true}, {Name: "addr_limit", Writable: true},
			},
			Stats: []core.Column{
				{Name: "serv_cnt"}, {Name: "avg_qlat"}, {Name: "bandwidth"}, {Name: "violations"},
			},
			Scheds:  []string{"frfcfs", "strict", "edf"},
			Sampled: true,
		},
		{
			Index: 4, Ident: "NIC_CP", Type: core.PlaneTypeNIC,
			Params: []core.Column{{Name: "mac", Writable: true}},
			Stats:  []core.Column{{Name: "rx_bytes"}, {Name: "tx_bytes"}},
		},
	}
}

func (r *fakeReg) LDomByName(name string) (core.DSID, bool) {
	ds, ok := r.ldoms[name]
	return ds, ok
}

func (r *fakeReg) LDomExists(ds core.DSID) bool { return ds <= r.max }

func testReg() *fakeReg {
	return &fakeReg{ldoms: map[string]core.DSID{"web": 0, "batch": 1}, max: 1}
}

func compileSrc(t *testing.T, src string, opts Options) (*Program, error) {
	t.Helper()
	f, err := Parse("test.pard", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return Compile(f, testReg(), opts)
}

func TestCompileIssueExample(t *testing.T) {
	prog, err := compileSrc(t,
		`cpa llc ldom web: when miss_rate > 0.30 for 3 samples => waymask += 2 max 12 cooldown 1ms`,
		Options{})
	if err != nil {
		t.Fatal(err)
	}
	cr := prog.Rules[0]
	if cr.CPA != 0 || cr.DSID != 0 || cr.Stat != "miss_rate" {
		t.Fatalf("header lowered wrong: %+v", cr)
	}
	if cr.Threshold != 300 {
		t.Fatalf("0.30 should scale to 300 (0.1%% units), got %d", cr.Threshold)
	}
	if cr.Hysteresis != 3 || !cr.Level {
		t.Fatalf("hysteresis/level wrong: hyst=%d level=%v", cr.Hysteresis, cr.Level)
	}
	if cr.Cooldown != sim.Tick(1_000_000_000) {
		t.Fatalf("cooldown = %d ticks, want 1ms = 1e9", cr.Cooldown)
	}
	w := cr.Writes[0]
	if w.Op != AssignAdd || w.Operand != 2 || !w.HasMax || w.Max != 12 {
		t.Fatalf("write lowered wrong: %+v", w)
	}
	if got := w.Apply(11); got != 12 {
		t.Fatalf("Apply(11) = %d, want clamp at 12", got)
	}
}

func TestThresholdScalingEquivalence(t *testing.T) {
	for _, th := range []string{"30%", "0.30", "300", "30.0%"} {
		prog, err := compileSrc(t,
			`cpa llc ldom web: when miss_rate > `+th+` => waymask = 0xff00`, Options{})
		if err != nil {
			t.Fatalf("threshold %q: %v", th, err)
		}
		if got := prog.Rules[0].Threshold; got != 300 {
			t.Errorf("threshold %q compiled to %d, want 300", th, got)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"unknown stat", `cpa llc ldom web: when mis_rate > 1 => waymask = 1`,
			`no statistic "mis_rate"`},
		{"unknown param", `cpa llc ldom web: when miss_rate > 1 => waymsk = 1`,
			`no parameter "waymsk"`},
		{"unknown plane", `cpa gpu ldom web: when miss_rate > 1 => waymask = 1`,
			`unknown plane "gpu"`},
		{"unknown ldom", `cpa llc ldom nosuch: when miss_rate > 1 => waymask = 1`,
			`no LDom named "nosuch"`},
		{"absent dsid", `cpa llc ldom 9: when miss_rate > 1 => waymask = 1`,
			"no LDom with DS-id 9"},
		{"fraction on counting stat", `cpa mem ldom web: when avg_qlat > 0.5 => priority = 1`,
			"counts whole units"},
		{"fractional param", `cpa llc ldom web: when miss_rate > 1 => waymask = 0.5`,
			"integer value"},
		{"level needs cooldown", `cpa llc ldom web: when miss_rate > 1 => waymask += 2`,
			"declare a cooldown"},
		{"max below min", `cpa llc ldom web: when miss_rate > 1 => waymask = 4 max 2 min 3`,
			"below min"},
		{"duplicate names", "rule a cpa llc ldom web: when miss_rate > 1 => waymask = 1 cooldown 1ms\n" +
			"rule a cpa mem ldom web: when avg_qlat > 1 => priority = 1",
			"duplicate rule name"},
		{"cross-plane stat", `cpa mem ldom web: when miss_rate > 1 => priority = 1`,
			`no statistic "miss_rate"`},
	}
	for _, tc := range cases {
		_, err := compileSrc(t, tc.src, Options{})
		if err == nil {
			t.Errorf("%s: compile succeeded, want error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: error %q, want substring %q", tc.name, err, tc.wantSub)
		}
		if !strings.HasPrefix(err.Error(), "test.pard:") {
			t.Errorf("%s: error %q lacks source position", tc.name, err)
		}
	}
}

func TestConflictDetection(t *testing.T) {
	cases := []struct {
		name, src string
		conflict  bool
	}{
		{"same ldom same param", "cpa llc ldom web: when miss_rate > 1 => waymask = 1\n" +
			"cpa llc ldom web: when miss_rate > 2 => waymask = 2", true},
		{"disjoint ldoms", "cpa llc ldom web: when miss_rate > 1 => waymask = 1\n" +
			"cpa llc ldom batch: when miss_rate > 2 => waymask = 2", false},
		{"self vs others is disjoint", "cpa llc ldom web: when miss_rate > 1 => waymask = 0xff00, others waymask = 0x00ff", false},
		{"others overlaps third ldom", "cpa llc ldom web: when miss_rate > 1 => others waymask = 1\n" +
			"cpa llc ldom batch: when miss_rate > 2 => others waymask = 2", true},
		{"fixed inside others", "cpa llc ldom web: when miss_rate > 1 => waymask = 1\n" +
			"cpa llc ldom batch: when miss_rate > 2 => others waymask = 2", true},
		{"all overlaps everything", "cpa llc ldom web: when miss_rate > 1 => all waymask = 1\n" +
			"cpa llc ldom batch: when miss_rate > 2 => waymask = 2", true},
		{"different planes ok", "cpa llc ldom web: when miss_rate > 1 => waymask = 1\n" +
			"cpa mem ldom web: when avg_qlat > 2 => priority = 1", false},
		{"different params ok", "cpa mem ldom web: when avg_qlat > 1 => priority = 1\n" +
			"cpa mem ldom web: when bandwidth > 2 => rowbuf = 1", false},
		{"same rule twice", "cpa llc ldom web: when miss_rate > 1 => waymask = 1, waymask = 2", true},
	}
	for _, tc := range cases {
		_, err := compileSrc(t, tc.src, Options{})
		if tc.conflict && err == nil {
			t.Errorf("%s: no conflict reported, want one", tc.name)
		}
		if !tc.conflict && err != nil {
			t.Errorf("%s: unexpected error: %v", tc.name, err)
		}
		if tc.conflict && err != nil && !strings.Contains(err.Error(), "write") {
			t.Errorf("%s: conflict error %q not descriptive", tc.name, err)
		}
	}
}

func TestAllowUnboundLDoms(t *testing.T) {
	src := "cpa llc ldom frontend: when miss_rate > 1 => waymask = 1\n" +
		"cpa llc ldom backend: when miss_rate > 2 => waymask = 2\n" +
		"cpa llc ldom 9: when miss_rate > 3 => waymask = 3"
	prog, err := compileSrc(t, src, Options{AllowUnboundLDoms: true})
	if err != nil {
		t.Fatalf("unbound compile: %v", err)
	}
	if len(prog.Unbound) != 2 || prog.Unbound[0] != "frontend" || prog.Unbound[1] != "backend" {
		t.Fatalf("Unbound = %v, want [frontend backend]", prog.Unbound)
	}
	// Same unresolved name twice still aliases: conflict must be caught.
	dup := "cpa llc ldom frontend: when miss_rate > 1 => waymask = 1\n" +
		"cpa llc ldom frontend: when miss_rate > 2 => waymask = 2"
	if _, err := compileSrc(t, dup, Options{AllowUnboundLDoms: true}); err == nil {
		t.Fatal("aliasing unbound names did not conflict")
	}
}

func TestApplySaturatesAndClamps(t *testing.T) {
	w := Write{Op: AssignSub, Operand: 5, HasMin: true, Min: 2}
	if got := w.Apply(3); got != 2 {
		t.Fatalf("sub underflow: got %d, want clamp 2", got)
	}
	w = Write{Op: AssignAdd, Operand: 10}
	if got := w.Apply(^uint64(0) - 3); got != ^uint64(0) {
		t.Fatalf("add overflow should saturate, got %d", got)
	}
}

// TestCompileRuleOnUnsampledPlane: a plane without a statistics sampler
// never evaluates its triggers, so a rule watching it fails compilation
// at the rule's plane, naming the planes that sample, and `policy
// validate` refuses what `policy apply` would.
func TestCompileRuleOnUnsampledPlane(t *testing.T) {
	_, err := compileSrc(t, "rule net cpa nic ldom web: when tx_bytes > 0 => on mem priority = 1", Options{})
	if err == nil {
		t.Fatal("compiled a rule on a plane that runs no sampler")
	}
	for _, want := range []string{"test.pard:1:14", "cpa4 (NIC_CP) runs no statistics sampler", `rule "net"`, "sample: cpa0/cache, cpa1/mem"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not contain %q", err, want)
		}
	}
}
