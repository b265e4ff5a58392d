package policy

import (
	"fmt"
	"strings"

	"repro/internal/metric"
	"repro/internal/sim"
)

// HistoryCap is how many firings Explain retains per rule (the "last K
// firings" window).
const HistoryCap = 16

// Outcome classifies what happened when a rule's trigger fired.
type Outcome string

// Firing outcomes.
const (
	OutcomeApplied     Outcome = "applied"
	OutcomeCooldown    Outcome = "suppressed (cooldown)"
	OutcomeRateLimited Outcome = "suppressed (rate limit)"
)

// Firing is one trigger interrupt for a rule: when it arrived, the
// statistic value that satisfied the condition, and what the runtime
// did about it. Detail carries the dry-run replay — the parameter
// writes that were (or would have been) performed.
type Firing struct {
	When    sim.Tick
	Value   uint64 // observed statistic value at fire time
	Outcome Outcome
	Detail  string
}

// RuleState is the per-rule runtime bookkeeping: fire/suppress
// counters, the sliding rate-limit window, and the bounded firing
// history behind `pardctl policy explain`.
type RuleState struct {
	Fired      uint64 // firings whose writes were applied
	Suppressed uint64 // firings suppressed by cooldown or rate limit

	recent []sim.Tick           // applied-firing times inside the rate window
	hist   *metric.Ring[Firing] // last HistoryCap firings; nil before the first
}

// AllowRate reports whether another firing fits inside the `limit N
// per D` window ending at now, pruning expired entries.
func (s *RuleState) AllowRate(now sim.Tick, n uint64, per sim.Tick) bool {
	if n == 0 {
		return true
	}
	keep := s.recent[:0]
	for _, t := range s.recent {
		if now-t < per {
			keep = append(keep, t)
		}
	}
	s.recent = keep
	return uint64(len(s.recent)) < n
}

// Record appends a firing to the history ring and bumps the counters.
func (s *RuleState) Record(f Firing) {
	if f.Outcome == OutcomeApplied {
		s.Fired++
		s.recent = append(s.recent, f.When)
	} else {
		s.Suppressed++
	}
	if s.hist == nil {
		s.hist = metric.NewRing[Firing](HistoryCap)
	}
	s.hist.Push(f)
}

// History returns the retained firings, oldest first.
func (s *RuleState) History() []Firing {
	if s.hist == nil {
		return nil
	}
	return s.hist.AppendTo(nil)
}

// FormatTick renders a simulation tick (1 ps) as a human time.
func FormatTick(t sim.Tick) string {
	switch {
	case t >= 1_000_000_000 && t%1_000_000 == 0:
		return fmt.Sprintf("%d.%03dms", t/1_000_000_000, (t%1_000_000_000)/1_000_000)
	case t >= 1_000_000:
		return fmt.Sprintf("%dus", t/1_000_000)
	case t >= 1_000:
		return fmt.Sprintf("%dns", t/1_000)
	}
	return fmt.Sprintf("%dps", t)
}

// Explain renders a rule's retained firing history: for each of the
// last K firings, the statistic value that satisfied the condition and
// the dry-run replay of its writes (applied or suppressed).
func Explain(c *CompiledRule, st *RuleState) string {
	var b strings.Builder
	fmt.Fprintf(&b, "rule %s: %s\n", c.DisplayName(), c.Rule.String())
	fmt.Fprintf(&b, "  fired=%d suppressed=%d\n", st.Fired, st.Suppressed)
	hist := st.History()
	if len(hist) == 0 {
		b.WriteString("  (no firings recorded)\n")
		return b.String()
	}
	for _, f := range hist {
		fmt.Fprintf(&b, "  [%s] %s=%d %s %d -> %s",
			FormatTick(f.When), c.Stat, f.Value, CmpSymbol(c.Op), c.Threshold, f.Outcome)
		if f.Detail != "" {
			fmt.Fprintf(&b, ": %s", f.Detail)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
