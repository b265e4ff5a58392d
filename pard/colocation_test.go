package pard

import (
	"os"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

// colocationConfig is the statistics window Figures 8 and 9 calibrate
// the guard against.
func colocationConfig() Config {
	cfg := DefaultConfig()
	cfg.SampleInterval = 50 * Microsecond
	return cfg
}

// Guard "" installs nothing, LLCGuardTrigger binds cpa0's trigger slot
// 0 to LDom0 with no policy, and .pard source loads the llc_guard
// policy (which compiles into a trigger of its own).
func TestColocationGuardModes(t *testing.T) {
	src, err := os.ReadFile("../examples/policies/llc_guard.pard")
	if err != nil {
		t.Fatal(err)
	}
	boot := func(guard string) (*System, *core.Trigger) {
		s := NewSystem(colocationConfig())
		if _, err := (Colocation{RPS: 20000, Guard: guard}).Provision(s); err != nil {
			t.Fatal(err)
		}
		tr, err := s.LLC.Plane().Trigger(0)
		if err != nil {
			t.Fatal(err)
		}
		return s, tr
	}
	if s, tr := boot(""); tr.Enabled || len(s.Firmware.Policies()) != 0 {
		t.Errorf("no guard: trigger slot 0 enabled %v, policies %v", tr.Enabled, s.Firmware.Policies())
	}
	if s, tr := boot(LLCGuardTrigger); !tr.Enabled || tr.DSID != 0 || len(s.Firmware.Policies()) != 0 {
		t.Errorf("built-in guard: trigger slot 0 enabled %v on ds%d, policies %v",
			tr.Enabled, tr.DSID, s.Firmware.Policies())
	}
	if s, _ := boot(string(src)); !reflect.DeepEqual(s.Firmware.Policies(), []string{"llc_guard"}) {
		t.Errorf("source guard: policies %v, want [llc_guard]", s.Firmware.Policies())
	}
}

// A server without cores 1-3 cannot host the STREAM LDoms: Provision
// says so before creating anything, rather than panicking on a missing
// core or, with a start delay, inside an event.
func TestColocationRejectsMissingCores(t *testing.T) {
	for _, start := range []Tick{0, Millisecond} {
		cfg := colocationConfig()
		cfg.Cores = 2
		s := NewSystem(cfg)
		_, err := Colocation{RPS: 20000, Streams: true, StreamStart: start}.Provision(s)
		if err == nil || !strings.Contains(err.Error(), "has 2") {
			t.Fatalf("StreamStart %v: error %v, want one naming the server's 2 cores", start, err)
		}
		if n := len(s.Firmware.LDoms()); n != 0 {
			t.Fatalf("StreamStart %v: rejected colocation left %d LDoms behind", start, n)
		}
	}
}

// guardBoot boots the four-LDom co-location server under the built-in
// guard and runs it past the first statistics sample, where the cold
// miss rate fires llc_grow_to_half.
func guardBoot(t *testing.T) *System {
	t.Helper()
	s := NewSystem(colocationConfig())
	if _, err := (Colocation{RPS: 20000, Guard: LLCGuardTrigger, Streams: true}).Provision(s); err != nil {
		t.Fatal(err)
	}
	s.Run(100 * Microsecond)
	return s
}

// dsOrder lists, in order, the DS-ids pattern's first group captures
// from the lines of out that contain marker.
func dsOrder(t *testing.T, out, marker string, pattern *regexp.Regexp) []int {
	t.Helper()
	var ds []int
	for _, line := range strings.Split(out, "\n") {
		if !strings.Contains(line, marker) {
			continue
		}
		m := pattern.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %q has no DS-id", line)
		}
		n, _ := strconv.Atoi(m[1])
		ds = append(ds, n)
	}
	return ds
}

// Operator and journal output lists LDoms in DS-id order on every boot.
// llc_grow_to_half, `ldoms` and `stats` used to walk the firmware's
// LDom map, so each boot of the same server could print another order.
// Go randomizes map iteration per loop; a 4-entry map comes back
// sorted in 5 of 8 starts (3 of 4 for the action's three other LDoms),
// so 40 boots leave an unsorted walk passing by luck about once in
// 10^5 runs.
func TestColocationOutputInDSIDOrder(t *testing.T) {
	const boots = 40
	ldomRe := regexp.MustCompile(`^ldom(\d+)`)
	dsRe := regexp.MustCompile(` ds=(\d+)`)
	want := []int{0, 1, 2, 3}
	var first []string
	for boot := 0; boot < boots; boot++ {
		s := guardBoot(t)
		if s.Firmware.TriggersHandled != 1 || s.Firmware.ActionErrors != 0 {
			t.Fatalf("boot %d: %d actions handled, %d failed; want llc_grow_to_half once",
				boot, s.Firmware.TriggersHandled, s.Firmware.ActionErrors)
		}
		var outs []string
		for _, check := range []struct {
			cmd, marker string
			re          *regexp.Regexp
		}{
			{"stats", "): LLC", ldomRe},
			{"ldoms", " ds=", ldomRe},
			{"journal 0", "name=waymask", dsRe},
			{"log", "ldom_create", dsRe},
		} {
			out, err := Dispatch(s, check.cmd)
			if err != nil {
				t.Fatalf("%s: %v", check.cmd, err)
			}
			if got := dsOrder(t, out, check.marker, check.re); !reflect.DeepEqual(got, want) {
				t.Fatalf("boot %d: %s lists DS-ids %v, want %v:\n%s", boot, check.cmd, got, want, out)
			}
			outs = append(outs, out)
		}
		if first == nil {
			first = outs
		} else if !reflect.DeepEqual(outs, first) {
			t.Fatalf("boot %d rendered differently from boot 0", boot)
		}
	}
}
