// Package policy implements pardpolicy, the declarative "trigger ⇒
// action" language that turns the paper's programmability claim into an
// operator workflow: conditions like `miss_rate > 30%` live in `.pard`
// files that are validated against the live control-plane registries,
// compiled into trigger-table entries plus synthesized PRM actions, and
// hot-reloaded without restarting the platform.
//
// The pipeline is Parse (source → AST, position-accurate errors) →
// Compile (AST → *Program, resolving every plane/statistic/parameter
// name against a Registry and lowering each rule to a trigger spec plus
// a bounded write set) → CheckConflicts (no two enabled rules may write
// the same (plane, ldom, parameter)). The PRM firmware owns the last
// step: installing the trigger rows and binding the synthesized actions
// (internal/prm/policy.go), and everything at run time — pacing,
// counts and `policy explain`. This package holds no runtime state.
//
// Grammar (see DESIGN.md §10 for the full EBNF):
//
//	rule llc_grow cpa llc ldom memcached:
//	    when miss_rate > 30% for 2 samples
//	    => waymask = 0xff00, others waymask = 0x00ff
//	    cooldown 500us
package policy

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/sim"
)

// Pos is a source position for error reporting and explain output.
type Pos struct {
	File string
	Line int // 1-based
	Col  int // 1-based, in bytes
}

func (p Pos) String() string {
	if p.File == "" {
		return fmt.Sprintf("%d:%d", p.Line, p.Col)
	}
	return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Col)
}

// PosError is a policy error carrying the source position it refers to.
type PosError struct {
	Pos Pos
	Msg string
}

func (e *PosError) Error() string { return e.Pos.String() + ": " + e.Msg }

func errAt(pos Pos, format string, args ...any) error {
	return &PosError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// File is a parsed policy: scheduler installations, an ordered list of
// rules, and any cluster-level intent blocks. Intents never compile
// through the plain per-server Compile path — CompileIntents lowers
// them against a cluster topology into per-server rule sets.
type File struct {
	Schedules []*Schedule
	Rules     []*Rule
	Intents   []*Intent
}

// Intent is one cluster-level objective block:
//
//	intent memtier {
//	    servers rack0-*;
//	    target miss_rate <= 30% on llc;
//	    protect ldom svc on cpa*;
//	    fabric weight ldom svc = 4;
//	}
//
// The intent compiler (CompileIntents) lowers it — against the
// federated controller's live topology — into one concrete .pard
// guard-rule set per matching server plus switch parameter writes.
type Intent struct {
	Pos  Pos
	Name string

	// Servers is the server-name glob of the `servers` clause; ""
	// (clause absent) means every server.
	Servers    string
	ServersPos Pos

	Targets  []*IntentTarget
	Protects []*IntentProtect
	Fabric   []*IntentFabric
}

// IntentTarget is one `target STAT CMP VALUE [on PLANE];` clause: the
// objective the compiled guard rule defends. The comparison states the
// desired envelope (lat <= 1ms); the lowered rule triggers on its
// negation.
type IntentTarget struct {
	Pos     Pos
	Stat    string
	StatPos Pos
	Op      core.CmpOp
	Value   Literal  // threshold when !IsDur
	IsDur   bool     // threshold spelled as a duration (1ms)
	Dur     Duration // valid when IsDur
	// Plane is the optional `on PLANE` ref; "" means resolve the plane
	// by searching each server's registry for the statistic.
	Plane    string
	PlanePos Pos
}

// IntentProtect is one `protect ldom REF [on PLANEGLOB];` clause: the
// LDom whose resources the compiled rules defend. Planes is a glob
// over plane short names and cpaN spellings; "" means every plane.
type IntentProtect struct {
	Pos       Pos
	LDom      LDomRef
	Planes    string
	PlanesPos Pos
}

// IntentFabric is one `fabric PARAM ldom REF = N;` clause: a switch
// parameter write applied fabric-wide by the federated controller.
type IntentFabric struct {
	Pos      Pos
	Param    string // "weight" or "rate_cap"
	ParamPos Pos
	LDom     LDomRef
	Value    Literal
}

// Schedule is one `schedule <plane> <algorithm>` declaration: install
// the named scheduling algorithm on the plane's programmable scheduler
// when the policy loads, and restore the previous algorithm when the
// policy is removed.
type Schedule struct {
	Pos      Pos
	Plane    string // plane ref: "mem", "ide", "cpa1", ...
	PlanePos Pos
	Algo     string // algorithm name as written, e.g. "edf"; may be an alias
	AlgoPos  Pos
}

// String renders one schedule declaration in canonical form.
func (s *Schedule) String() string {
	return fmt.Sprintf("schedule %s %s", s.Plane, s.Algo)
}

// Rule is one `when <condition> => <actions>` policy rule.
type Rule struct {
	Pos  Pos
	Name string // optional `rule NAME`; "" if anonymous

	Plane    string // trigger plane ref: "llc", "mem", "cpa0", ...
	PlanePos Pos
	LDom     LDomRef

	Stat      string // statistic watched, e.g. "miss_rate"
	StatPos   Pos
	Op        core.CmpOp
	Threshold Literal

	ForSamples uint64 // `for N samples` hysteresis; 0 = absent

	Actions []*Action

	Cooldown *Duration // `cooldown 500us`; nil = absent
	LimitN   uint64    // `limit N per D`; 0 = absent
	LimitPer *Duration
}

// LDomRef names an LDom either symbolically ("memcached", resolved
// against live LDom names at load time) or by DS-id number.
type LDomRef struct {
	Pos   Pos
	Name  string
	Num   uint64
	IsNum bool
}

func (r LDomRef) String() string {
	if r.IsNum {
		return fmt.Sprintf("%d", r.Num)
	}
	return r.Name
}

// Target selects which LDom rows an action writes.
type Target int

// Action target selectors.
const (
	TargetSelf   Target = iota // the rule's trigger LDom (default)
	TargetOthers               // every LDom except the trigger LDom
	TargetAll                  // every LDom
	TargetLDom                 // one explicitly named LDom
)

// AssignOp is the parameter-mutation operator of an action.
type AssignOp int

// Assignment operators.
const (
	AssignSet AssignOp = iota // =
	AssignAdd                 // +=
	AssignSub                 // -=
)

func (op AssignOp) String() string {
	switch op {
	case AssignAdd:
		return "+="
	case AssignSub:
		return "-="
	}
	return "="
}

// Action is one parameter write on the right-hand side of a rule.
type Action struct {
	Pos Pos

	Plane    string // `on mem`; "" = the rule's trigger plane
	PlanePos Pos
	Target   Target
	LDom     LDomRef // valid when Target == TargetLDom

	Param    string
	ParamPos Pos
	Op       AssignOp
	Operand  Literal

	Max *Literal // `max 12` upper clamp
	Min *Literal // `min 2` lower clamp
}

// Literal is a numeric literal. Text preserves the exact source
// spelling (0xff00, 0.30, 30%) so printing round-trips and explain
// output reads like the policy the operator wrote.
type Literal struct {
	Pos       Pos
	Text      string
	IsFloat   bool
	IsPercent bool
	Uint      uint64  // value for integer (and hex) literals
	Float     float64 // value for float literals
}

// Duration is a lexical duration: an integer count plus a unit.
type Duration struct {
	Pos  Pos
	N    uint64
	Unit string // "ns", "us", "ms", "s"
}

// durationTicks maps duration units to engine ticks (1 tick = 1 ps).
var durationTicks = map[string]sim.Tick{
	"ns": 1_000,
	"us": 1_000_000,
	"ms": 1_000_000_000,
	"s":  1_000_000_000_000,
}

// Ticks converts the duration to simulation ticks.
func (d Duration) Ticks() sim.Tick { return sim.Tick(d.N) * durationTicks[d.Unit] }

func (d Duration) String() string { return fmt.Sprintf("%d%s", d.N, d.Unit) }

// cmpSymbols renders comparison operators the way policies spell them.
var cmpSymbols = [...]string{">", ">=", "<", "<=", "==", "!="}

// CmpSymbol returns the policy-source spelling of a comparison operator.
func CmpSymbol(op core.CmpOp) string {
	if int(op) < len(cmpSymbols) {
		return cmpSymbols[op]
	}
	return op.String()
}

// String renders the file in canonical form. Parsing the result yields
// the same AST (the parse→print→parse fixpoint FuzzParsePolicy and
// FuzzParseIntent check).
func (f *File) String() string {
	var b strings.Builder
	for _, s := range f.Schedules {
		b.WriteString(s.String())
		b.WriteByte('\n')
	}
	for i, r := range f.Rules {
		if i > 0 || len(f.Schedules) > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	for i, in := range f.Intents {
		if i > 0 || len(f.Schedules) > 0 || len(f.Rules) > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(in.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// String renders one intent block in canonical form: the servers
// clause first, then targets, protects and fabric clauses in source
// order within each kind.
func (in *Intent) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "intent %s {\n", in.Name)
	if in.Servers != "" {
		fmt.Fprintf(&b, "    servers %s;\n", in.Servers)
	}
	for _, t := range in.Targets {
		fmt.Fprintf(&b, "    target %s %s ", t.Stat, CmpSymbol(t.Op))
		if t.IsDur {
			b.WriteString(t.Dur.String())
		} else {
			b.WriteString(t.Value.Text)
		}
		if t.Plane != "" {
			fmt.Fprintf(&b, " on %s", t.Plane)
		}
		b.WriteString(";\n")
	}
	for _, p := range in.Protects {
		fmt.Fprintf(&b, "    protect ldom %s", p.LDom)
		if p.Planes != "" {
			fmt.Fprintf(&b, " on %s", p.Planes)
		}
		b.WriteString(";\n")
	}
	for _, fc := range in.Fabric {
		fmt.Fprintf(&b, "    fabric %s ldom %s = %s;\n", fc.Param, fc.LDom, fc.Value.Text)
	}
	b.WriteString("}")
	return b.String()
}

// String renders one rule on a single canonical line.
func (r *Rule) String() string {
	var b strings.Builder
	if r.Name != "" {
		fmt.Fprintf(&b, "rule %s ", r.Name)
	}
	fmt.Fprintf(&b, "cpa %s ldom %s: when %s %s %s",
		r.Plane, r.LDom, r.Stat, CmpSymbol(r.Op), r.Threshold.Text)
	if r.ForSamples > 0 {
		fmt.Fprintf(&b, " for %d samples", r.ForSamples)
	}
	b.WriteString(" => ")
	for i, a := range r.Actions {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.String())
	}
	if r.Cooldown != nil {
		fmt.Fprintf(&b, " cooldown %s", r.Cooldown)
	}
	if r.LimitN > 0 {
		fmt.Fprintf(&b, " limit %d per %s", r.LimitN, r.LimitPer)
	}
	return b.String()
}

// String renders one action in canonical form.
func (a *Action) String() string {
	var b strings.Builder
	if a.Plane != "" {
		fmt.Fprintf(&b, "on %s ", a.Plane)
	}
	switch a.Target {
	case TargetOthers:
		b.WriteString("others ")
	case TargetAll:
		b.WriteString("all ")
	case TargetLDom:
		fmt.Fprintf(&b, "ldom %s ", a.LDom)
	}
	fmt.Fprintf(&b, "%s %s %s", a.Param, a.Op, a.Operand.Text)
	if a.Max != nil {
		fmt.Fprintf(&b, " max %s", a.Max.Text)
	}
	if a.Min != nil {
		fmt.Fprintf(&b, " min %s", a.Min.Text)
	}
	return b.String()
}
