package policy

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/sim"
)

// PlaneInfo describes one control plane to the typechecker: its CPA
// index, identity, parameter/statistics schemas, scheduling algorithms
// and whether it samples. The PRM firmware supplies these from its live
// mounts.
type PlaneInfo struct {
	Index  int    // cpa index (cpa0, cpa1, ...)
	Ident  string // plane identity string, e.g. "CACHE_CP"
	Type   byte   // core.PlaneType* byte
	Params []core.Column
	Stats  []core.Column
	// Scheds lists the scheduling algorithms the plane's component
	// implements, the power-on default first; nil without a
	// programmable scheduler.
	Scheds []string
	// Sampled reports whether the plane runs a statistics sampler. Only
	// a sampled plane evaluates its trigger table, so only it can carry
	// a rule.
	Sampled bool
}

// ShortName derives the policy-language plane name from the identity
// string: "CACHE_CP" → "cache", "MEM_CP" → "mem".
func (pi PlaneInfo) ShortName() string {
	return strings.ToLower(strings.TrimSuffix(pi.Ident, "_CP"))
}

// Registry is the live control-plane and LDom naming environment a
// policy compiles against. internal/prm implements it over the
// firmware's mounts and LDom table.
type Registry interface {
	Planes() []PlaneInfo
	LDomByName(name string) (core.DSID, bool)
	LDomExists(ds core.DSID) bool
}

// Options tunes compilation.
type Options struct {
	// AllowUnboundLDoms makes unresolved LDom names and absent DS-ids
	// non-fatal: each distinct unknown name is assigned a synthetic
	// DS-id so conflict detection still sees name-aliasing, and the
	// names are reported in Program.Unbound. `pardctl policy validate`
	// uses this — statistic/parameter checks stay strict, but a policy
	// can be validated before its LDoms exist.
	AllowUnboundLDoms bool
}

// planeAliases maps accepted plane spellings to the canonical short
// name derived from the plane identity string.
var planeAliases = map[string]string{
	"llc":      "cache",
	"l3":       "cache",
	"memory":   "mem",
	"dram":     "mem",
	"io":       "bridge",
	"disk":     "ide",
	"net":      "nic",
	"crossbar": "xbar",
}

// schedAliases maps retired algorithm names to the algorithm that runs
// them now, so .pard files written against them still compile. A
// schedule naming an alias compiles, installs and reads back as its
// target; the /sys/cpa/cpaN/scheduler node accepts only the target.
var schedAliases = map[string]string{
	"pifo-frfcfs": "frfcfs",
	"pifo-drr":    "drr",
	"pifo-fifo":   "fifo",
}

// statScales maps statistics that represent fractions to their
// fixed-point scale (units per 1.0). miss_rate is stored in 0.1% units,
// so `> 30%`, `> 0.30` and `> 300` all compile to the threshold 300.
var statScales = map[string]uint64{
	"miss_rate": 1000,
}

// Program is a compiled policy: each rule lowered to a trigger spec
// plus a bounded write set, ready for the firmware to install.
type Program struct {
	Schedules []*CompiledSchedule
	Rules     []*CompiledRule

	// Unbound lists LDom names left unresolved under
	// Options.AllowUnboundLDoms, in first-reference order.
	Unbound []string
}

// CompiledSchedule is one `schedule` declaration lowered against the
// registry: install Algo on cpa CPA at load time, restore the previous
// algorithm at teardown.
type CompiledSchedule struct {
	Schedule  *Schedule // source AST, for text rendering
	CPA       int
	PlaneName string
	Algo      string // the algorithm installed: the source name with any alias resolved
	Default   string // the plane's power-on default algorithm
	Qual      string // loader-qualified display name ("policy: schedule"); "" = standalone
}

// DisplayName is the loader-qualified name used in conflict errors.
func (cs *CompiledSchedule) DisplayName() string {
	if cs.Qual != "" {
		return cs.Qual
	}
	return cs.Schedule.String()
}

// CompiledRule is one rule lowered against the registry.
type CompiledRule struct {
	Rule *Rule  // source AST, for text rendering and explain output
	Name string // unique within the program; used as the device-tree node name
	Qual string // loader-qualified display name ("policy/rule"); "" = use Name

	CPA        int // trigger plane index
	PlaneName  string
	DSID       core.DSID
	Stat       string
	Op         core.CmpOp
	Threshold  uint64
	Hysteresis uint64
	Level      bool     // fire every sample while true (+=/-= rules)
	Cooldown   sim.Tick // 0 = none
	LimitN     uint64   // rate limit: at most LimitN firings per LimitPer
	LimitPer   sim.Tick

	Writes []Write
}

// DisplayName is the loader-qualified name used in conflict errors.
func (c *CompiledRule) DisplayName() string {
	if c.Qual != "" {
		return c.Qual
	}
	return c.Name
}

// WriteSel selects which LDom rows a write touches.
type WriteSel int

// Write selectors.
const (
	WriteFixed  WriteSel = iota // exactly DSID
	WriteOthers                 // every LDom except DSID
	WriteAll                    // every LDom
)

// Write is one lowered parameter mutation.
type Write struct {
	Pos       Pos
	CPA       int
	PlaneName string
	Sel       WriteSel
	DSID      core.DSID // WriteFixed target, or the WriteOthers exclusion
	Param     string
	Op        AssignOp
	Operand   uint64
	HasMax    bool
	Max       uint64
	HasMin    bool
	Min       uint64
}

// Apply computes the post-write value from the current one: the
// assignment operator with saturating arithmetic, then the max/min
// clamps.
func (w *Write) Apply(old uint64) uint64 {
	var v uint64
	switch w.Op {
	case AssignSet:
		v = w.Operand
	case AssignAdd:
		v = old + w.Operand
		if v < old { // saturate on overflow
			v = math.MaxUint64
		}
	case AssignSub:
		if old < w.Operand {
			v = 0
		} else {
			v = old - w.Operand
		}
	}
	if w.HasMax && v > w.Max {
		v = w.Max
	}
	if w.HasMin && v < w.Min {
		v = w.Min
	}
	return v
}

// TargetDesc describes the write's target set for error messages and
// explain output.
func (w *Write) TargetDesc() string {
	switch w.Sel {
	case WriteOthers:
		return fmt.Sprintf("every ldom but %d", w.DSID)
	case WriteAll:
		return "all ldoms"
	}
	return fmt.Sprintf("ldom %d", w.DSID)
}

// syntheticDSIDBase keeps unbound-name placeholder DS-ids clear of any
// real DS-id: DSID is uint16 and the platform allocates small integers
// upward from zero, so the top 4K of the space is safe for placeholders.
const syntheticDSIDBase core.DSID = 0xF000

// compiler carries compile state.
type compiler struct {
	reg     Registry
	opts    Options
	planes  []PlaneInfo
	unbound map[string]core.DSID // synthetic ids for unresolved names
	order   []string             // unbound names in first-reference order
}

// Compile typechecks the file against the registry and lowers every
// rule. All errors carry source positions.
func Compile(f *File, reg Registry, opts Options) (*Program, error) {
	if len(f.Intents) > 0 {
		return nil, errAt(f.Intents[0].Pos, "intent %q targets a cluster, not one server: compile it with CompileIntents against a cluster topology (pardctl intent)", f.Intents[0].Name)
	}
	c := &compiler{reg: reg, opts: opts, planes: reg.Planes(), unbound: map[string]core.DSID{}}
	prog := &Program{}
	for _, s := range f.Schedules {
		cs, err := c.compileSchedule(s)
		if err != nil {
			return nil, err
		}
		prog.Schedules = append(prog.Schedules, cs)
	}
	if err := CheckScheduleConflicts(prog.Schedules); err != nil {
		return nil, err
	}
	names := map[string]Pos{}
	for i, r := range f.Rules {
		cr, err := c.compileRule(r, i)
		if err != nil {
			return nil, err
		}
		if prev, dup := names[cr.Name]; dup {
			return nil, errAt(r.Pos, "duplicate rule name %q (first declared at %v)", cr.Name, prev)
		}
		names[cr.Name] = r.Pos
		prog.Rules = append(prog.Rules, cr)
	}
	prog.Unbound = c.order
	if err := CheckConflicts(prog.Rules); err != nil {
		return nil, err
	}
	return prog, nil
}

// Check typechecks without keeping the compiled form.
func Check(f *File, reg Registry, opts Options) error {
	_, err := Compile(f, reg, opts)
	return err
}

// compileSchedule resolves a `schedule` declaration's plane and checks
// the algorithm, with any alias resolved, against the plane's own
// catalogue, so a policy that names a nonexistent algorithm — or
// schedules a plane with no programmable scheduler — fails validation
// rather than install time.
func (c *compiler) compileSchedule(s *Schedule) (*CompiledSchedule, error) {
	pi, err := c.resolvePlane(s.Plane, s.PlanePos)
	if err != nil {
		return nil, err
	}
	if len(pi.Scheds) == 0 {
		return nil, errAt(s.PlanePos, "plane %s (cpa%d) has no programmable scheduler", pi.ShortName(), pi.Index)
	}
	algo := s.Algo
	if target, ok := schedAliases[algo]; ok {
		algo = target
	}
	if !slices.Contains(pi.Scheds, algo) {
		return nil, errAt(s.AlgoPos, "plane %s (cpa%d) has no scheduling algorithm %q (available: %s)",
			pi.ShortName(), pi.Index, s.Algo, strings.Join(pi.Scheds, ", "))
	}
	return &CompiledSchedule{
		Schedule: s, CPA: pi.Index, PlaneName: pi.ShortName(), Algo: algo, Default: pi.Scheds[0],
	}, nil
}

func (c *compiler) compileRule(r *Rule, idx int) (*CompiledRule, error) {
	cr := &CompiledRule{Rule: r, Name: r.Name}
	if cr.Name == "" {
		cr.Name = "rule" + strconv.Itoa(idx+1)
	}

	pi, err := c.resolvePlane(r.Plane, r.PlanePos)
	if err != nil {
		return nil, err
	}
	cr.CPA, cr.PlaneName = pi.Index, pi.ShortName()
	if !pi.Sampled {
		return nil, errAt(r.PlanePos, "cpa%d (%s) runs no statistics sampler, so rule %q would never fire; planes that sample: %s",
			pi.Index, pi.Ident, cr.Name, c.planeList(func(pi PlaneInfo) bool { return pi.Sampled }))
	}

	if cr.DSID, err = c.resolveLDom(r.LDom); err != nil {
		return nil, err
	}

	si := columnIndex(pi.Stats, r.Stat)
	if si < 0 {
		return nil, errAt(r.StatPos, "plane %s (cpa%d) has no statistic %q (available: %s)",
			cr.PlaneName, pi.Index, r.Stat, columnNames(pi.Stats))
	}
	cr.Stat = r.Stat
	cr.Op = r.Op
	if cr.Threshold, err = statValue(r.Stat, r.Threshold); err != nil {
		return nil, err
	}
	cr.Hysteresis = r.ForSamples
	if r.Cooldown != nil {
		cr.Cooldown = r.Cooldown.Ticks()
	}
	if r.LimitN > 0 {
		cr.LimitN, cr.LimitPer = r.LimitN, r.LimitPer.Ticks()
	}

	for _, a := range r.Actions {
		w, level, err := c.compileAction(cr, pi, a)
		if err != nil {
			return nil, err
		}
		cr.Writes = append(cr.Writes, w)
		cr.Level = cr.Level || level
	}
	if cr.Level && r.Cooldown == nil {
		return nil, errAt(r.Pos, "rule %q adjusts a parameter incrementally (+= or -=) and is level-triggered: declare a cooldown (e.g. 'cooldown 500us') so it cannot re-fire every sample", cr.Name)
	}
	return cr, nil
}

func (c *compiler) compileAction(cr *CompiledRule, triggerPlane PlaneInfo, a *Action) (Write, bool, error) {
	pi := triggerPlane
	if a.Plane != "" {
		var err error
		if pi, err = c.resolvePlane(a.Plane, a.PlanePos); err != nil {
			return Write{}, false, err
		}
	}
	w := Write{Pos: a.Pos, CPA: pi.Index, PlaneName: pi.ShortName(), Param: a.Param, Op: a.Op}

	ci := columnIndex(pi.Params, a.Param)
	if ci < 0 {
		return Write{}, false, errAt(a.ParamPos, "plane %s (cpa%d) has no parameter %q (available: %s)",
			w.PlaneName, pi.Index, a.Param, columnNames(pi.Params))
	}
	if !pi.Params[ci].Writable {
		return Write{}, false, errAt(a.ParamPos, "parameter %q on plane %s is read-only", a.Param, w.PlaneName)
	}

	switch a.Target {
	case TargetSelf:
		w.Sel, w.DSID = WriteFixed, cr.DSID
	case TargetOthers:
		w.Sel, w.DSID = WriteOthers, cr.DSID
	case TargetAll:
		w.Sel = WriteAll
	case TargetLDom:
		ds, err := c.resolveLDom(a.LDom)
		if err != nil {
			return Write{}, false, err
		}
		w.Sel, w.DSID = WriteFixed, ds
	}

	var err error
	if w.Operand, err = paramValue(a.Param, a.Operand); err != nil {
		return Write{}, false, err
	}
	if a.Max != nil {
		if w.Max, err = paramValue(a.Param, *a.Max); err != nil {
			return Write{}, false, err
		}
		w.HasMax = true
	}
	if a.Min != nil {
		if w.Min, err = paramValue(a.Param, *a.Min); err != nil {
			return Write{}, false, err
		}
		w.HasMin = true
	}
	if w.HasMax && w.HasMin && w.Max < w.Min {
		return Write{}, false, errAt(a.Max.Pos, "max %s is below min %s", a.Max.Text, a.Min.Text)
	}
	return w, a.Op != AssignSet, nil
}

// resolvePlane matches a policy plane reference ("llc", "mem", "cpa0",
// "dram", ...) against the registry.
func (c *compiler) resolvePlane(name string, pos Pos) (PlaneInfo, error) {
	lower := strings.ToLower(name)
	if rest, ok := strings.CutPrefix(lower, "cpa"); ok && rest != "" {
		if idx, err := strconv.Atoi(rest); err == nil {
			for _, pi := range c.planes {
				if pi.Index == idx {
					return pi, nil
				}
			}
			return PlaneInfo{}, errAt(pos, "no control plane cpa%d (available: %s)", idx, c.planeList(nil))
		}
	}
	canon := lower
	if alias, ok := planeAliases[lower]; ok {
		canon = alias
	}
	for _, pi := range c.planes {
		if pi.ShortName() == canon {
			return pi, nil
		}
	}
	return PlaneInfo{}, errAt(pos, "unknown plane %q (available: %s)", name, c.planeList(nil))
}

// planeList lists the planes for which keep is true, or every plane
// when keep is nil.
func (c *compiler) planeList(keep func(PlaneInfo) bool) string {
	var parts []string
	for _, pi := range c.planes {
		if keep == nil || keep(pi) {
			parts = append(parts, fmt.Sprintf("cpa%d/%s", pi.Index, pi.ShortName()))
		}
	}
	return strings.Join(parts, ", ")
}

// resolveLDom maps an LDom reference to a DS-id. Under
// AllowUnboundLDoms, unknown names get distinct synthetic DS-ids so
// conflict detection still works symbolically.
func (c *compiler) resolveLDom(ref LDomRef) (core.DSID, error) {
	if ref.IsNum {
		ds := core.DSID(ref.Num)
		if !c.opts.AllowUnboundLDoms && !c.reg.LDomExists(ds) {
			return 0, errAt(ref.Pos, "no LDom with DS-id %d exists", ref.Num)
		}
		return ds, nil
	}
	if ds, ok := c.reg.LDomByName(ref.Name); ok {
		return ds, nil
	}
	if !c.opts.AllowUnboundLDoms {
		return 0, errAt(ref.Pos, "no LDom named %q exists", ref.Name)
	}
	if ds, ok := c.unbound[ref.Name]; ok {
		return ds, nil
	}
	ds := syntheticDSIDBase + core.DSID(len(c.unbound))
	c.unbound[ref.Name] = ds
	c.order = append(c.order, ref.Name)
	return ds, nil
}

// statValue converts a threshold literal into the statistic's raw
// units, applying the fixed-point scale for fractional statistics.
func statValue(stat string, lit Literal) (uint64, error) {
	scale, scaled := statScales[stat]
	switch {
	case !lit.IsFloat && !lit.IsPercent:
		return lit.Uint, nil
	case !scaled:
		return 0, errAt(lit.Pos, "statistic %q counts whole units; use an integer threshold, not %q", stat, lit.Text)
	case lit.IsPercent && !lit.IsFloat:
		return (lit.Uint*scale + 50) / 100, nil
	case lit.IsPercent:
		return uint64(math.Round(lit.Float * float64(scale) / 100)), nil
	default:
		return uint64(math.Round(lit.Float * float64(scale))), nil
	}
}

// paramValue converts an action operand literal; parameters are raw
// integers (masks, priorities, quotas), so fractions are rejected.
func paramValue(param string, lit Literal) (uint64, error) {
	if lit.IsFloat || lit.IsPercent {
		return 0, errAt(lit.Pos, "parameter %q takes an integer value, not %q", param, lit.Text)
	}
	return lit.Uint, nil
}

func columnIndex(cols []core.Column, name string) int {
	for i, col := range cols {
		if col.Name == name {
			return i
		}
	}
	return -1
}

func columnNames(cols []core.Column) string {
	var names []string
	for _, col := range cols {
		names = append(names, col.Name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// CheckConflicts rejects write sets where two rules (or two actions of
// one rule) could write the same (plane, ldom, parameter). Selector
// overlap is decided conservatively: `others` vs `others` always
// overlaps even if the excluded DS-ids differ, because any third LDom
// is written by both.
//
// One carve-out keeps raise/lower controllers expressible: two rules
// that watch the same statistic cell with provably disjoint firing
// conditions (say `miss_rate > 40%` and `miss_rate < 20%`) can never
// fire on the same sample, so their writes to a shared cell are
// ordered by time, not by evaluation order, and are not a conflict.
// pardcheck (Lint) separately warns when such a pair has no dead band
// and no hysteresis.
func CheckConflicts(rules []*CompiledRule) error {
	for i, a := range rules {
		for j := i; j < len(rules); j++ {
			b := rules[j]
			if i != j && condMutuallyExclusive(a, b) {
				continue
			}
			wbStart := 0
			for wi, wa := range a.Writes {
				if i == j {
					wbStart = wi + 1 // within one rule, compare distinct action pairs
				}
				for _, wb := range b.Writes[wbStart:] {
					if wa.CPA != wb.CPA || wa.Param != wb.Param || !selOverlap(wa, wb) {
						continue
					}
					if i == j {
						return errAt(wb.Pos, "rule %q writes parameter %q on plane %s twice for %s",
							a.DisplayName(), wa.Param, wa.PlaneName, wa.TargetDesc())
					}
					return errAt(wb.Pos, "rules %q and %q both write parameter %q on plane %s for %s (first write at %v)",
						a.DisplayName(), b.DisplayName(), wa.Param, wa.PlaneName, overlapDesc(wa, wb), wa.Pos)
				}
			}
		}
	}
	return nil
}

// CheckScheduleConflicts rejects two `schedule` declarations naming the
// same plane: a plane runs exactly one scheduling algorithm, so the
// second install would silently overwrite the first and teardown-order
// restore would become load-order dependent. Identical algorithms are
// still a conflict — the policies' teardown semantics would differ from
// their load semantics.
func CheckScheduleConflicts(scheds []*CompiledSchedule) error {
	byCPA := map[int]*CompiledSchedule{}
	for _, cs := range scheds {
		if prev, dup := byCPA[cs.CPA]; dup {
			return errAt(cs.Schedule.Pos, "schedules %q and %q both install a scheduler on plane %s (cpa%d) (first at %v)",
				prev.DisplayName(), cs.DisplayName(), cs.PlaneName, cs.CPA, prev.Schedule.Pos)
		}
		byCPA[cs.CPA] = cs
	}
	return nil
}

// selOverlap reports whether two writes can touch a common LDom row.
func selOverlap(a, b Write) bool {
	if a.Sel > b.Sel { // normalize: a.Sel <= b.Sel
		a, b = b, a
	}
	switch {
	case a.Sel == WriteFixed && b.Sel == WriteFixed:
		return a.DSID == b.DSID
	case a.Sel == WriteFixed && b.Sel == WriteOthers:
		return a.DSID != b.DSID
	default:
		// fixed/all, others/others, others/all, all/all: some LDom is
		// (conservatively) written by both.
		return true
	}
}

// overlapDesc names the overlapping target set for the error message.
func overlapDesc(a, b Write) string {
	if a.Sel == WriteFixed {
		return a.TargetDesc()
	}
	if b.Sel == WriteFixed {
		return b.TargetDesc()
	}
	return "overlapping ldom sets"
}
