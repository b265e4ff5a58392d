package pard

import (
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// schedAliasPolicy schedules the LLC, memory and IDE planes under the
// pifo-* names of the retired PIFO twins, which the .pard compiler
// keeps as aliases of the algorithms that run them now.
const schedAliasPolicy = "schedule llc pifo-fifo\nschedule mem pifo-frfcfs\nschedule ide pifo-drr\n"

// TestPIFOSchedulerStateDigestEquivalence: a policy naming all three
// aliases loads on every server of the rack2_sched workload. Each
// scheduler node then reads the target algorithm, each sched_install
// journal entry names it, and the run keeps the default schedulers'
// golden digest.
func TestPIFOSchedulerStateDigestEquivalence(t *testing.T) {
	got := rack2Sched(t, func(s *System) {
		if err := s.LoadPolicy("aliases", schedAliasPolicy); err != nil {
			t.Fatal(err)
		}
		for _, n := range []struct{ cpa, want string }{{"cpa0", "fifo"}, {"cpa1", "frfcfs"}, {"cpa3", "drr"}} {
			if algo, err := s.Firmware.FS().ReadFile("/sys/cpa/" + n.cpa + "/scheduler"); err != nil || algo != n.want {
				t.Fatalf("%s scheduler node = %q, %v; want %q", n.cpa, algo, err, n.want)
			}
		}
		var installs []string
		for i := 0; i < s.Journal.Len(); i++ {
			if ev := s.Journal.At(i); ev.Kind == telemetry.KindSchedInstall {
				installs = append(installs, ev.Plane+"="+ev.Name)
			}
		}
		if got := strings.Join(installs, " "); got != "cpa0=fifo cpa1=frfcfs cpa3=drr" {
			t.Fatalf("sched_install journal entries %q, want the alias targets", got)
		}
	})
	if h := goldenHash(got); h != "cb8ecb6fcc0c8bed" {
		t.Fatalf("rack2_sched with aliases loaded hashes to %s, golden cb8ecb6fcc0c8bed", h)
	}
}

// TestSchedulerNodeRejectsAlias: the aliases live in the .pard compiler
// alone. Writing one to a scheduler node fails, and the error names the
// plane's algorithms.
func TestSchedulerNodeRejectsAlias(t *testing.T) {
	s := NewSystem(DefaultConfig())
	err := s.Firmware.FS().WriteFile("/sys/cpa/cpa3/scheduler", "pifo-drr")
	if err == nil || !strings.Contains(err.Error(), "have drr") {
		t.Fatalf("writing pifo-drr to the IDE scheduler node: %v, want an error naming drr", err)
	}
	if algo, _ := s.Firmware.FS().ReadFile("/sys/cpa/cpa3/scheduler"); algo != "drr" {
		t.Fatalf("IDE scheduler node reads %q after the rejected write, want drr", algo)
	}
}
