package policy

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// This file is pardcheck: an abstract interpreter over compiled .pard
// programs. It runs interval analysis on each rule's firing condition
// (over the statistic's value domain) and on each write's saturating
// arithmetic and clamps, and reports rules that can never fire, rules
// that fire but change nothing, and raise/lower controller pairs with
// no hysteresis between them. It is purely advisory: Lint never
// rejects a program, it explains why a program will not do what its
// author meant.

// Issue is one pardcheck finding.
type Issue struct {
	Pos  Pos
	Rule string // DisplayName of the rule the finding anchors to
	Msg  string
}

func (i Issue) String() string { return i.Pos.String() + ": " + i.Msg }

// interval is an inclusive [Lo, Hi] range of raw statistic or
// parameter units. The empty interval is represented explicitly so
// [0, 0] (the single value zero) stays distinct from "no values".
type interval struct {
	lo, hi uint64
	empty  bool
}

func (iv interval) contains(v uint64) bool { return !iv.empty && iv.lo <= v && v <= iv.hi }

func (iv interval) equal(other interval) bool {
	if iv.empty || other.empty {
		return iv.empty == other.empty
	}
	return iv.lo == other.lo && iv.hi == other.hi
}

func intersect(a, b interval) interval {
	if a.empty || b.empty || a.hi < b.lo || b.hi < a.lo {
		return interval{empty: true}
	}
	return interval{lo: max(a.lo, b.lo), hi: min(a.hi, b.hi)}
}

// statDomain returns the value range the hardware can report for a
// statistic: fractional statistics saturate at their fixed-point scale
// (miss_rate tops out at 100% = 1000 raw units), counters at the
// register width.
func statDomain(stat string) interval {
	if scale, ok := statScales[stat]; ok {
		return interval{lo: 0, hi: scale}
	}
	return interval{lo: 0, hi: math.MaxUint64}
}

// fireInterval returns the subset of dom where `value op threshold`
// holds. OpNE is not an interval; it conservatively returns the whole
// domain (unless the domain is the single excluded point), which keeps
// every downstream judgment sound: != is never "provably exclusive"
// with anything and never "provably unreachable".
func fireInterval(op core.CmpOp, threshold uint64, dom interval) interval {
	switch op {
	case core.OpGT:
		if threshold == math.MaxUint64 {
			return interval{empty: true}
		}
		return intersect(dom, interval{lo: threshold + 1, hi: math.MaxUint64})
	case core.OpGE:
		return intersect(dom, interval{lo: threshold, hi: math.MaxUint64})
	case core.OpLT:
		if threshold == 0 {
			return interval{empty: true}
		}
		return intersect(dom, interval{lo: 0, hi: threshold - 1})
	case core.OpLE:
		return intersect(dom, interval{lo: 0, hi: threshold})
	case core.OpEQ:
		return intersect(dom, interval{lo: threshold, hi: threshold})
	case core.OpNE:
		if dom.lo == dom.hi && dom.lo == threshold {
			return interval{empty: true}
		}
		return dom
	}
	return dom
}

// condMutuallyExclusive reports whether two rules watch the same
// statistic cell with conditions that can never hold in the same
// sample — the carve-out that lets a raise/lower controller pair write
// the same parameter cell without being a write conflict.
func condMutuallyExclusive(a, b *CompiledRule) bool {
	if a.CPA != b.CPA || a.DSID != b.DSID || a.Stat != b.Stat {
		return false
	}
	dom := statDomain(a.Stat)
	return intersect(fireInterval(a.Op, a.Threshold, dom), fireInterval(b.Op, b.Threshold, dom)).empty
}

// writeIsNoOp reports whether w provably never changes its target
// cell, together with a reason.
func writeIsNoOp(w *Write) (string, bool) {
	switch w.Op {
	case AssignAdd, AssignSub:
		if w.Operand == 0 {
			return fmt.Sprintf("%s 0 never changes %q", w.Op, w.Param), true
		}
		if w.Op == AssignAdd && w.HasMax && w.HasMin && w.Max == w.Min {
			return fmt.Sprintf("max %d and min %d pin %q to a single value", w.Max, w.Min, w.Param), true
		}
	case AssignSet:
		// A set is a no-op only against a known prior value, which the
		// abstract state does not track across the firmware's external
		// writes; nothing to prove here.
	}
	return "", false
}

// clampedOperand reports set-operands the clamps rewrite: the author
// wrote one value but the cell always receives another.
func clampedOperand(w *Write) (string, bool) {
	if w.Op != AssignSet {
		return "", false
	}
	if w.HasMax && w.Operand > w.Max {
		return fmt.Sprintf("writes %d but max %d always rewrites it to %d", w.Operand, w.Max, w.Max), true
	}
	if w.HasMin && w.Operand < w.Min {
		return fmt.Sprintf("writes %d but min %d always rewrites it to %d", w.Operand, w.Min, w.Min), true
	}
	return "", false
}

// writesDiffer reports whether two writes can leave a shared cell with
// different values — the precondition for a toggle.
func writesDiffer(a, b *Write) bool {
	return a.Op != b.Op || a.Operand != b.Operand ||
		a.HasMax != b.HasMax || a.Max != b.Max ||
		a.HasMin != b.HasMin || a.Min != b.Min
}

// hasDamping reports whether r carries any mechanism that slows
// re-firing: sample hysteresis, a cooldown, or a rate limit.
func hasDamping(r *CompiledRule) bool {
	return r.Hysteresis > 0 || r.Cooldown > 0 || r.LimitN > 0
}

// gapBetween returns the number of statistic values strictly between
// two disjoint non-empty intervals — the controller's dead band. A
// zero gap means the bands touch: any sample falls in one of them.
func gapBetween(a, b interval) uint64 {
	if a.lo > b.lo {
		a, b = b, a
	}
	if b.lo <= a.hi {
		return 0
	}
	return b.lo - a.hi - 1
}

// Lint abstractly interprets a compiled program and returns advisory
// findings. It never fails a program that Compile accepted.
func Lint(prog *Program) []Issue {
	var out []Issue
	report := func(pos Pos, rule, format string, args ...any) {
		out = append(out, Issue{Pos: pos, Rule: rule, Msg: fmt.Sprintf(format, args...)})
	}

	// Scheduling the power-on default is a no-op at load time — and
	// worse, its teardown restore is a no-op too, so the declaration
	// adds nothing but the illusion of control.
	for _, cs := range prog.Schedules {
		if cs.Algo == cs.Default {
			what := fmt.Sprintf("%q is", cs.Algo)
			if cs.Schedule.Algo != cs.Algo {
				what = fmt.Sprintf("%q is an alias of %q, which is", cs.Schedule.Algo, cs.Algo)
			}
			report(cs.Schedule.Pos, cs.DisplayName(),
				"schedule is a no-op: %s already plane %s's power-on default scheduling algorithm",
				what, cs.PlaneName)
		}
	}

	fires := make([]interval, len(prog.Rules))
	for i, r := range prog.Rules {
		dom := statDomain(r.Stat)
		fires[i] = fireInterval(r.Op, r.Threshold, dom)

		switch {
		case fires[i].empty:
			report(r.Rule.Pos, r.DisplayName(),
				"rule %q can never fire: %s %s %d is outside the statistic's domain [%d, %d]",
				r.DisplayName(), r.Stat, r.Op, r.Threshold, dom.lo, dom.hi)
		case fires[i].equal(dom):
			report(r.Rule.Pos, r.DisplayName(),
				"rule %q fires on every sample: %s %s %d is true over the statistic's whole domain [%d, %d], so the condition never re-arms",
				r.DisplayName(), r.Stat, r.Op, r.Threshold, dom.lo, dom.hi)
		}

		deadWrites := 0
		for wi := range r.Writes {
			w := &r.Writes[wi]
			if reason, dead := writeIsNoOp(w); dead {
				deadWrites++
				report(w.Pos, r.DisplayName(), "action is a no-op: %s", reason)
			}
			if reason, clamped := clampedOperand(w); clamped {
				report(w.Pos, r.DisplayName(), "clamp rewrites the operand: %s", reason)
			}
		}
		if len(r.Writes) > 0 && deadWrites == len(r.Writes) {
			report(r.Rule.Pos, r.DisplayName(),
				"dead trigger: rule %q fires but none of its actions can change a parameter", r.DisplayName())
		}
	}

	// Raise/lower controller pairs: two rules watching the same
	// statistic cell with disjoint firing bands, steering a shared
	// parameter cell in different directions. The bands' gap is the
	// controller's only hysteresis; if they touch and neither rule is
	// damped, every sample lands in one band or the other and the pair
	// can ping-pong the parameter on consecutive samples.
	for i, a := range prog.Rules {
		for j := i + 1; j < len(prog.Rules); j++ {
			b := prog.Rules[j]
			if !condMutuallyExclusive(a, b) || fires[i].empty || fires[j].empty {
				continue
			}
			shared := sharedToggledCell(a, b)
			if shared == "" {
				continue
			}
			if gap := gapBetween(fires[i], fires[j]); gap == 0 && !hasDamping(a) && !hasDamping(b) {
				report(b.Rule.Pos, b.DisplayName(),
					"rules %q and %q form a raise/lower pair on %s with no dead band between %s bands and no hysteresis: add 'for N samples' or a cooldown to one side, or separate the thresholds, or the pair can oscillate every sample",
					a.DisplayName(), b.DisplayName(), shared, a.Stat)
			}
		}
	}
	return out
}

// sharedToggledCell returns a description of a parameter cell both
// rules write with different effects, or "" if none exists.
func sharedToggledCell(a, b *CompiledRule) string {
	for wi := range a.Writes {
		wa := &a.Writes[wi]
		for wj := range b.Writes {
			wb := &b.Writes[wj]
			if wa.CPA == wb.CPA && wa.Param == wb.Param && selOverlap(*wa, *wb) && writesDiffer(wa, wb) {
				return fmt.Sprintf("parameter %q (plane %s)", wa.Param, wa.PlaneName)
			}
		}
	}
	return ""
}
