package policy

import (
	"strings"
	"testing"

	"repro/internal/core"
)

// TestParseSchedule covers the `schedule <plane> <algorithm>` form:
// hyphenated algorithm names lex as single identifiers, schedules mix
// freely with rules, and the canonical print groups schedules first.
func TestParseSchedule(t *testing.T) {
	src := "cpa llc ldom web: when miss_rate > 1 => waymask = 1\nschedule mem edf\nschedule ide pifo-drr"
	f, err := Parse("test.pard", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Schedules) != 2 || len(f.Rules) != 1 {
		t.Fatalf("got %d schedules / %d rules, want 2 / 1", len(f.Schedules), len(f.Rules))
	}
	if s := f.Schedules[0]; s.Plane != "mem" || s.Algo != "edf" {
		t.Fatalf("first schedule = %+v", s)
	}
	if s := f.Schedules[1]; s.Plane != "ide" || s.Algo != "pifo-drr" {
		t.Fatalf("hyphenated algorithm parsed wrong: %+v", s)
	}
	printed := f.String()
	if !strings.HasPrefix(printed, "schedule mem edf\nschedule ide pifo-drr\n") {
		t.Fatalf("canonical print does not group schedules first:\n%s", printed)
	}
	again, err := Parse("test.pard", printed)
	if err != nil {
		t.Fatalf("printed form does not re-parse: %v", err)
	}
	if again.String() != printed {
		t.Fatalf("print is not a fixpoint:\n%s\nvs\n%s", printed, again.String())
	}
}

// TestHyphenLexingPreservesMinusEquals: consuming '-' into identifiers
// must not swallow the '-=' operator, spaced or juxtaposed.
func TestHyphenLexingPreservesMinusEquals(t *testing.T) {
	for _, src := range []string{
		"cpa llc ldom web: when miss_rate > 1 => waymask -= 1 cooldown 1ms",
		"cpa llc ldom web: when miss_rate > 1 => waymask-=1 cooldown 1ms",
	} {
		f, err := Parse("test.pard", src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if op := f.Rules[0].Actions[0].Op; op != AssignSub {
			t.Fatalf("%q: action op = %v, want -=", src, op)
		}
	}
}

// TestCompileSchedule lowers schedules against the registry — an alias
// compiles to its target — and rejects unknown algorithms, naming the
// plane's own catalogue, unschedulable planes, and duplicate plane
// installs.
func TestCompileSchedule(t *testing.T) {
	prog, err := compileSrc(t, "schedule mem edf\nschedule llc pifo-fifo", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Schedules) != 2 {
		t.Fatalf("got %d compiled schedules, want 2", len(prog.Schedules))
	}
	if cs := prog.Schedules[0]; cs.CPA != 1 || cs.Algo != "edf" || cs.PlaneName != "mem" {
		t.Fatalf("mem schedule lowered wrong: %+v", cs)
	}
	if cs := prog.Schedules[1]; cs.CPA != 0 || cs.Algo != "fifo" || cs.Default != "fifo" {
		t.Fatalf("llc schedule lowered wrong: %+v", cs)
	}

	for _, tc := range []struct {
		src     string
		wantSub string
	}{
		{"schedule mem cfq", "no scheduling algorithm \"cfq\""},
		{"schedule mem cfq", "available: frfcfs, strict, edf"},
		{"schedule mem pifo-drr", "no scheduling algorithm \"pifo-drr\""},
		{"schedule nvme edf", "unknown plane"},
		{"schedule mem edf\nschedule dram strict", "both install a scheduler on plane mem"},
	} {
		_, err := compileSrc(t, tc.src, Options{})
		if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
			t.Fatalf("Compile(%q) error %v, want substring %q", tc.src, err, tc.wantSub)
		}
	}
}

// noSchedReg exposes one plane of a type with no scheduling catalogue.
type noSchedReg struct{ fakeReg }

func (r *noSchedReg) Planes() []PlaneInfo {
	return []PlaneInfo{{Index: 0, Ident: "NIC_CP", Type: core.PlaneTypeNIC}}
}

// TestCompileScheduleUnschedulableType: a plane whose type has no
// catalogue cannot be scheduled, with a position-accurate error.
func TestCompileScheduleUnschedulableType(t *testing.T) {
	f, err := Parse("test.pard", "schedule nic drr")
	if err != nil {
		t.Fatal(err)
	}
	_, err = Compile(f, &noSchedReg{*testReg()}, Options{})
	if err == nil || !strings.Contains(err.Error(), "has no programmable scheduler") {
		t.Fatalf("Compile error %v, want 'has no programmable scheduler'", err)
	}
}

// TestLintScheduleDefaultNoOp: scheduling the power-on default, or an
// alias of it, draws a pardcheck advisory; a non-default algorithm does
// not.
func TestLintScheduleDefaultNoOp(t *testing.T) {
	for src, want := range map[string]string{
		"schedule mem frfcfs":      `"frfcfs" is already plane mem's power-on default`,
		"schedule mem pifo-frfcfs": `"pifo-frfcfs" is an alias of "frfcfs", which is already plane mem's power-on default`,
	} {
		prog, err := compileSrc(t, src, Options{})
		if err != nil {
			t.Fatal(err)
		}
		issues := Lint(prog)
		if len(issues) != 1 || !strings.Contains(issues[0].Msg, want) {
			t.Fatalf("Lint(%q) = %v, want one finding containing %q", src, issues, want)
		}
	}

	prog, err := compileSrc(t, "schedule mem edf", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if issues := Lint(prog); len(issues) != 0 {
		t.Fatalf("Lint flagged a non-default schedule: %v", issues)
	}
}
