package prm

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

const guardSrc = `
rule guard cpa llc ldom web:
    when miss_rate > 300
    => waymask = 0xff00, others waymask = 0x00ff
`

// policyFirmware boots the test firmware with LDoms "web" (ds0) and
// "batch" (ds1) and a 256-event journal that records parameter writes,
// as a booted server's does.
func policyFirmware(t *testing.T) (*sim.Engine, *Firmware, *core.Plane) {
	t.Helper()
	e, fw, _, cp, mp := newFirmware(t)
	for _, name := range []string{"web", "batch"} {
		if _, err := fw.CreateLDom(LDomSpec{Name: name}); err != nil {
			t.Fatal(err)
		}
	}
	journalParams(fw, telemetry.NewJournal(e, 256), cp, mp)
	return e, fw, cp
}

// journalParams wires j to fw and journals every parameter write on
// planes (mounted as cpa0, cpa1, ...) the way pard.attachTelemetry
// does; the firmware-layer tests mount bare planes.
func journalParams(fw *Firmware, j *telemetry.Journal, planes ...*core.Plane) {
	fw.SetJournal(j)
	for i, p := range planes {
		name := fmt.Sprintf("cpa%d", i)
		p.SetParamObserver(func(ds core.DSID, param string, old, new uint64) {
			j.Record(telemetry.Event{
				Kind: telemetry.KindParamWrite, Origin: fw.Origin(),
				Plane: name, DS: ds, Name: param, Old: old, New: new,
			})
		})
	}
}

func TestLoadPolicyInstallsAndFires(t *testing.T) {
	e, fw, cp := policyFirmware(t)
	if err := fw.LoadPolicy("guard", guardSrc); err != nil {
		t.Fatal(err)
	}

	// The rule occupies a trigger slot bound to its synthesized action.
	out, err := fw.FS().ReadFile("/sys/cpa/cpa0/ldoms/ldom0/triggers/0")
	if err != nil || out != "policy/guard/guard" {
		t.Fatalf("trigger leaf = %q, %v", out, err)
	}

	cp.SetStat(0, "miss_rate", 450)
	cp.Evaluate(0)
	e.Run(e.Now() + 20*sim.Microsecond)

	for path, want := range map[string]string{
		"/sys/cpa/cpa0/ldoms/ldom0/parameters/waymask": "0xff00",
		"/sys/cpa/cpa0/ldoms/ldom1/parameters/waymask": "0xff",
		"/sys/cpa/policy/guard/rules/guard/fired":      "1",
		"/sys/cpa/policy/guard/rules/guard/suppressed": "0",
	} {
		got, err := fw.FS().ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if got != want {
			t.Errorf("%s = %q, want %q", path, got, want)
		}
	}

	expl, err := fw.ExplainPolicies("")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"policy guard", "miss_rate=450 > 300", "applied", "waymask 0xffff -> 0xff00"} {
		if !strings.Contains(expl, want) {
			t.Errorf("explain missing %q:\n%s", want, expl)
		}
	}
}

func TestLoadPolicyRejectsBadAndConflicting(t *testing.T) {
	_, fw, _ := policyFirmware(t)

	// Unknown statistic: position-accurate load error, nothing installed.
	err := fw.LoadPolicy("bad", `cpa llc ldom web: when mis_rate > 1 => waymask = 1`)
	if err == nil || !strings.Contains(err.Error(), `no statistic "mis_rate"`) {
		t.Fatalf("bad stat error = %v", err)
	}
	if !strings.Contains(err.Error(), "bad.pard:1:") {
		t.Fatalf("error lacks position: %v", err)
	}
	if len(fw.Policies()) != 0 {
		t.Fatal("failed load left residue")
	}

	// A second policy writing the same (plane, ldom, param) conflicts.
	if err := fw.LoadPolicy("guard", guardSrc); err != nil {
		t.Fatal(err)
	}
	err = fw.LoadPolicy("guard2", `cpa llc ldom web: when capacity > 1 => waymask = 0x3`)
	if err == nil || !strings.Contains(err.Error(), "both write") {
		t.Fatalf("conflict error = %v", err)
	}
	if got := fw.Policies(); len(got) != 1 || got[0] != "guard" {
		t.Fatalf("policies after rejected load = %v", got)
	}
	// Duplicate name is refused outright.
	if err := fw.LoadPolicy("guard", guardSrc); err == nil {
		t.Fatal("duplicate load succeeded")
	}
}

func TestReloadPolicySwapsTriggersAtomically(t *testing.T) {
	e, fw, cp := policyFirmware(t)
	if err := fw.LoadPolicy("guard", guardSrc); err != nil {
		t.Fatal(err)
	}

	// A broken replacement must leave the old policy running.
	if err := fw.ReloadPolicy("guard", `cpa llc ldom web: when nope > 1 => waymask = 1`); err == nil {
		t.Fatal("broken reload succeeded")
	}
	if out, err := fw.FS().ReadFile("/sys/cpa/policy/guard/rules/guard/state"); err != nil || !strings.Contains(out, "enabled") {
		t.Fatalf("old policy not intact after failed reload: %q, %v", out, err)
	}

	// A good replacement tears the old trigger down and re-arms.
	replacement := `rule guard2 cpa llc ldom batch: when miss_rate > 100 => waymask = 0x00f0`
	if err := fw.ReloadPolicy("guard", replacement); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.FS().ReadFile("/sys/cpa/policy/guard/rules/guard/state"); err == nil {
		t.Fatal("old rule node survived reload")
	}
	out, err := fw.FS().ReadFile("/sys/cpa/policy/guard/source")
	if err != nil || !strings.Contains(out, "guard2") {
		t.Fatalf("source node = %q, %v", out, err)
	}

	// Old trigger must not fire; new one must.
	cp.SetStat(0, "miss_rate", 500) // web: old rule's condition
	cp.Evaluate(0)
	cp.SetStat(1, "miss_rate", 200) // batch: new rule's condition
	cp.Evaluate(1)
	e.Run(e.Now() + 20*sim.Microsecond)
	way0, _ := fw.FS().ReadFile("/sys/cpa/cpa0/ldoms/ldom0/parameters/waymask")
	way1, _ := fw.FS().ReadFile("/sys/cpa/cpa0/ldoms/ldom1/parameters/waymask")
	if way0 != "0xffff" {
		t.Fatalf("torn-down rule still fired: ldom0 waymask %q", way0)
	}
	if way1 != "0xf0" {
		t.Fatalf("replacement rule did not fire: ldom1 waymask %q", way1)
	}
}

func TestUnloadPolicyFreesSlotsAndNodes(t *testing.T) {
	_, fw, _ := policyFirmware(t)
	if err := fw.LoadPolicy("guard", guardSrc); err != nil {
		t.Fatal(err)
	}
	if err := fw.UnloadPolicy("guard"); err != nil {
		t.Fatal(err)
	}
	if len(fw.Policies()) != 0 || len(fw.bindings) != 0 {
		t.Fatalf("unload left residue: policies=%v bindings=%d", fw.Policies(), len(fw.bindings))
	}
	cpa, _ := fw.CPA(0)
	en, err := cpa.ReadEntry(0, core.TrigColEnabled, core.SelTrigger)
	if err != nil || en != 0 {
		t.Fatalf("trigger slot still enabled after unload: %d, %v", en, err)
	}
	// The slot is reusable.
	if err := fw.LoadPolicy("guard", guardSrc); err != nil {
		t.Fatalf("slot not reusable: %v", err)
	}
}

func TestPolicyRateLimit(t *testing.T) {
	e, fw, cp := policyFirmware(t)
	src := `cpa llc ldom web: when miss_rate > 300 => waymask += 1 max 0xffff cooldown 2us limit 2 per 1ms`
	if err := fw.LoadPolicy("lim", src); err != nil {
		t.Fatal(err)
	}
	cp.SetStat(0, "miss_rate", 400)
	for i := 1; i <= 10; i++ {
		e.Schedule(sim.Tick(i)*5*sim.Microsecond, func() { cp.Evaluate(0) })
	}
	e.Run(e.Now() + 100*sim.Microsecond)

	expl, err := fw.ExplainPolicies("lim")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(expl, "rate limit") {
		t.Fatalf("rate limit never engaged:\n%s", expl)
	}
	// Only 2 applications allowed inside the 1 ms window.
	out, _ := fw.FS().ReadFile("/sys/cpa/policy/lim/rules/rule1/fired")
	if out != "2" {
		t.Fatalf("fired = %s, want 2 (limit 2 per 1ms)", out)
	}
}

// TestPolicyRateLimitAccounting: the firmware applies a rule's rate
// limit beside its cooldown, so every count agrees on a rate-limited
// firing: the firmware's, the trig_suppressed statistic, the rule's
// files and the journal, which records it as trigger_suppressed.
func TestPolicyRateLimitAccounting(t *testing.T) {
	e, fw, cp := policyFirmware(t)
	src := `cpa llc ldom web: when miss_rate > 300 => waymask += 1 max 0xffff cooldown 2us limit 2 per 1ms`
	if err := fw.LoadPolicy("lim", src); err != nil {
		t.Fatal(err)
	}
	cp.SetStat(0, "miss_rate", 400)
	for i := 1; i <= 10; i++ {
		e.Schedule(sim.Tick(i)*5*sim.Microsecond, func() { cp.Evaluate(0) })
	}
	e.Run(e.Now() + 100*sim.Microsecond)

	if fw.TriggersHandled != 2 || fw.TriggersSuppressed != 8 {
		t.Errorf("firmware handled %d, suppressed %d; want 2, 8", fw.TriggersHandled, fw.TriggersSuppressed)
	}
	for path, want := range map[string]string{
		"/sys/cpa/cpa0/ldoms/ldom0/statistics/trig_suppressed": "8",
		"/sys/cpa/policy/lim/rules/rule1/fired":                "2",
		"/sys/cpa/policy/lim/rules/rule1/suppressed":           "8",
		"/sys/cpa/cpa0/ldoms/ldom0/parameters/waymask":         "0xffff", // 0xffff += 1, clamped twice
	} {
		if got, err := fw.FS().ReadFile(path); err != nil || got != want {
			t.Errorf("%s = %q, %v; want %q", path, got, err, want)
		}
	}
	kinds := map[string]int{}
	j := fw.Journal()
	for i := 0; i < j.Len(); i++ {
		ev := j.At(i)
		if ev.Origin != "policy:lim/rule1" {
			continue
		}
		kinds[ev.Kind]++
		if ev.Kind == telemetry.KindTriggerSuppress &&
			ev.Detail != "suppressed: action policy/lim/rule1 over rate limit 2 per 1.000ms" {
			t.Errorf("trigger_suppressed #%d detail %q does not name the limit", ev.Seq, ev.Detail)
		}
	}
	if kinds[telemetry.KindTriggerFired] != 2 || kinds[telemetry.KindTriggerSuppress] != 8 {
		t.Errorf("journal holds %d trigger_fired and %d trigger_suppressed, want 2 and 8",
			kinds[telemetry.KindTriggerFired], kinds[telemetry.KindTriggerSuppress])
	}
}

// TestBindingRateWindow: a binding's `limit N per D` window counts the
// runs of the last D ticks and forgets older ones.
func TestBindingRateWindow(t *testing.T) {
	if (&binding{}).overLimit(0) {
		t.Fatal("a binding without a limit refused a run")
	}
	b := &binding{limitN: 2, limitPer: 1000}
	if b.overLimit(0) {
		t.Fatal("empty window refused")
	}
	b.recent = append(b.recent, 0, 100)
	if !b.overLimit(200) {
		t.Fatal("window full but firing allowed")
	}
	// The first run leaves the window at t=1000.
	if b.overLimit(1001) {
		t.Fatal("expired entry still counted")
	}
	if len(b.recent) != 1 || b.recent[0] != 100 {
		t.Fatalf("window after expiry = %v, want [100]", b.recent)
	}
}

// explainLines returns the firing lines of one policy's explain text.
func explainLines(t *testing.T, fw *Firmware, name string) []string {
	t.Helper()
	out, err := fw.ExplainPolicies(name)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "  [") {
			lines = append(lines, l)
		}
	}
	return lines
}

// TestExplainRendersJournal: explain renders a rule's firings from the
// journal; an applied line lists the writes that firing made, in the
// order it made them, at the firmware's handling time.
func TestExplainRendersJournal(t *testing.T) {
	e, fw, cp := policyFirmware(t)
	src := `rule guard cpa llc ldom web: when miss_rate > 30% => waymask = 0xff00, others waymask = 0x00ff
rule grow cpa llc ldom batch: when miss_rate > 300 => on mem priority += 1 max 9 cooldown 10us limit 1 per 1ms
`
	if err := fw.LoadPolicy("p", src); err != nil {
		t.Fatal(err)
	}
	cp.SetStat(0, "miss_rate", 450)
	cp.SetStat(1, "miss_rate", 500)
	cp.Evaluate(0)
	// A rate-limited firing restarts grow's cooldown as a run does, so
	// the one 5 us later is on cooldown.
	for _, us := range []sim.Tick{0, 10, 15, 20} {
		e.Schedule(us*sim.Microsecond, func() { cp.Evaluate(1) })
	}
	e.Run(30 * sim.Microsecond)
	out, err := fw.ExplainPolicies("p")
	if err != nil {
		t.Fatal(err)
	}
	want := `policy p (2 rules)
rule p/guard: rule guard cpa llc ldom web: when miss_rate > 30% => waymask = 0xff00, others waymask = 0x00ff
  fired=1 suppressed=0
  [1us] miss_rate=450 > 300 -> applied: waymask 0xffff -> 0xff00 (cpa0 ldom0), waymask 0xffff -> 0xff (cpa0 ldom1)
rule p/grow: rule grow cpa llc ldom batch: when miss_rate > 300 => on mem priority += 1 max 9 cooldown 10us limit 1 per 1ms
  fired=1 suppressed=3
  [1us] miss_rate=500 > 300 -> applied: priority 0 -> 1 (cpa1 ldom1)
  [11us] miss_rate=500 > 300 -> suppressed (rate limit)
  [16us] miss_rate=500 > 300 -> suppressed (cooldown)
  [21us] miss_rate=500 > 300 -> suppressed (rate limit)`
	if out != want {
		t.Fatalf("explain:\n%s\nwant:\n%s", out, want)
	}
}

// TestExplainHistoryStartsAtReload: a reload starts the rule's history
// afresh, as it starts its counts.
func TestExplainHistoryStartsAtReload(t *testing.T) {
	e, fw, cp := policyFirmware(t)
	if err := fw.LoadPolicy("guard", guardSrc); err != nil {
		t.Fatal(err)
	}
	fire := func() {
		cp.SetStat(0, "miss_rate", 450)
		cp.Evaluate(0)
		e.Run(e.Now() + 20*sim.Microsecond)
		cp.SetStat(0, "miss_rate", 0) // re-arm the edge trigger
		cp.Evaluate(0)
	}
	fire()
	if n := len(explainLines(t, fw, "guard")); n != 1 {
		t.Fatalf("explain shows %d firings before the reload, want 1", n)
	}
	if err := fw.ReloadPolicy("guard", guardSrc); err != nil {
		t.Fatal(err)
	}
	if out, _ := fw.ExplainPolicies("guard"); !strings.Contains(out, "fired=0 suppressed=0\n  (no firings recorded)") {
		t.Fatalf("explain after the reload:\n%s", out)
	}
	fire()
	if lines := explainLines(t, fw, "guard"); len(lines) != 1 || !strings.HasPrefix(lines[0], "  [21us] ") {
		t.Fatalf("explain after a firing past the reload shows %q, want the 21us firing only", lines)
	}
}

// TestExplainShowsLastSixteenFirings: explain shows a rule's latest
// explainDepth firings, oldest first, and its counts over all of them.
func TestExplainShowsLastSixteenFirings(t *testing.T) {
	e, fw, cp := policyFirmware(t)
	src := `rule grow cpa llc ldom web: when miss_rate > 300 => waymask += 1 max 0xffff cooldown 2us`
	if err := fw.LoadPolicy("p", src); err != nil {
		t.Fatal(err)
	}
	cp.SetStat(0, "miss_rate", 400)
	fireStorm(e, cp, 20, sim.Microsecond) // runs on odd samples, suppressed on even ones
	lines := explainLines(t, fw, "p")
	if len(lines) != explainDepth {
		t.Fatalf("explain shows %d firings, want %d:\n%s", len(lines), explainDepth, strings.Join(lines, "\n"))
	}
	// Firings 5..20, handled 1 us after each sample.
	if first, last := lines[0], lines[len(lines)-1]; !strings.HasPrefix(first, "  [6us] ") || !strings.HasPrefix(last, "  [21us] ") {
		t.Fatalf("explain shows %q .. %q, want the 6us .. 21us firings", first, last)
	}
	if out, _ := fw.ExplainPolicies("p"); !strings.Contains(out, "fired=10 suppressed=10") {
		t.Fatalf("explain counts:\n%s", out)
	}
}

// TestExplainLeadsWithLatestApplied: when none of the latest
// explainDepth firings applied, explain leads with the latest firing
// that did, writes and all, and counts the firings it skips.
func TestExplainLeadsWithLatestApplied(t *testing.T) {
	e, fw, cp := policyFirmware(t)
	src := `rule shrink cpa llc ldom web: when miss_rate > 300 => waymask -= 0xff cooldown 100us`
	if err := fw.LoadPolicy("p", src); err != nil {
		t.Fatal(err)
	}
	cp.SetStat(0, "miss_rate", 400)
	fireStorm(e, cp, 20, sim.Microsecond) // runs on the first sample, suppressed on the rest
	out, err := fw.ExplainPolicies("p")
	if err != nil {
		t.Fatal(err)
	}
	want := `  fired=1 suppressed=19
  [2us] miss_rate=400 > 300 -> applied: waymask 0xffff -> 0xff00 (cpa0 ldom0)
  ... 3 firings omitted
  [6us] miss_rate=400 > 300 -> suppressed (cooldown)
`
	if !strings.Contains(out, want) || !strings.HasSuffix(out, "  [21us] miss_rate=400 > 300 -> suppressed (cooldown)") {
		t.Fatalf("explain:\n%s\nwant it to hold:\n%s", out, want)
	}
	if n := len(explainLines(t, fw, "p")); n != explainDepth+1 {
		t.Fatalf("explain shows %d firings, want %d", n, explainDepth+1)
	}
}

// TestExplainWithoutJournal: with no journal there is no history to
// render, so explain prints the counts and says the journal is off; a
// journal that displaced the set's load event says so.
func TestExplainWithoutJournal(t *testing.T) {
	e, fw, cp := policyFirmware(t)
	if err := fw.LoadPolicy("guard", guardSrc); err != nil {
		t.Fatal(err)
	}
	cp.SetStat(0, "miss_rate", 450)
	cp.Evaluate(0)
	e.Run(e.Now() + 20*sim.Microsecond)

	fw.SetJournal(nil)
	out, err := fw.ExplainPolicies("guard")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(out, "  fired=1 suppressed=0\n  (journal off: no firing history)") {
		t.Fatalf("explain without a journal:\n%s", out)
	}

	j := telemetry.NewJournal(e, 2)
	fw.SetJournal(j)
	j.Record(telemetry.Event{Kind: telemetry.KindPolicyLoad, Name: "guard"})
	j.Record(telemetry.Event{Kind: telemetry.KindError})
	j.Record(telemetry.Event{Kind: telemetry.KindError})
	if out, _ := fw.ExplainPolicies("guard"); !strings.Contains(out, "truncated: load event displaced with 1 older events\n") {
		t.Fatalf("explain with the load event displaced:\n%s", out)
	}
}

func TestFormatTick(t *testing.T) {
	cases := map[sim.Tick]string{
		500:               "500ps",
		2_000:             "2ns",
		3_000_000:         "3us",
		1_200_000_000:     "1.200ms",
		2_000_000_000_000: "2000.000ms",
	}
	for in, want := range cases {
		if got := FormatTick(in); got != want {
			t.Errorf("FormatTick(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestShPolicyCommands(t *testing.T) {
	_, fw, _ := policyFirmware(t)
	if out, err := fw.Sh("policy"); err != nil || out != "no policies loaded" {
		t.Fatalf("policy list empty = %q, %v", out, err)
	}
	if err := fw.LoadPolicy("guard", guardSrc); err != nil {
		t.Fatal(err)
	}
	out, err := fw.Sh("policy")
	if err != nil || !strings.Contains(out, "guard: 1 rules") {
		t.Fatalf("policy list = %q, %v", out, err)
	}
	out, err = fw.Sh("policy show guard")
	if err != nil || !strings.Contains(out, "rule guard cpa llc ldom web") {
		t.Fatalf("policy show = %q, %v", out, err)
	}
	out, err = fw.Sh("policy explain guard")
	if err != nil || !strings.Contains(out, "no firings recorded") {
		t.Fatalf("policy explain = %q, %v", out, err)
	}
	if _, err := fw.Sh("policy unload guard"); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Sh("policy show guard"); err == nil {
		t.Fatal("show after unload succeeded")
	}
}
