package prm

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// policyRule is one installed rule: its compiled form, the trigger
// slot it occupies and that slot's binding, whose counts the rule's
// files read. The rule keeps the binding, so the counts outlive
// DestroyLDom unbinding the slot.
type policyRule struct {
	c          *policy.CompiledRule
	slot       int
	b          *binding
	actionName string
}

// policySched is one applied scheduler installation: its compiled form
// plus the algorithm it displaced, restored at teardown.
type policySched struct {
	c    *policy.CompiledSchedule
	prev string
}

// policySet is one loaded policy: the source text and its installed
// rules and scheduler installations, exposed under
// /sys/cpa/policy/<name>.
type policySet struct {
	name   string
	source string
	prog   *policy.Program
	rules  []*policyRule
	scheds []*policySched
}

// fwRegistry adapts the firmware's mounts and LDom table to the policy
// compiler's Registry.
type fwRegistry struct{ fw *Firmware }

func (r fwRegistry) Planes() []policy.PlaneInfo {
	var out []policy.PlaneInfo
	for idx, m := range r.fw.mounts {
		p := m.cpa.Plane
		out = append(out, policy.PlaneInfo{
			Index:  idx,
			Ident:  p.Ident(),
			Type:   p.Type(),
			Params: p.Params().Columns(),
			Stats:  p.Stats().Columns(),
			Scheds: p.SchedulerAlgos(),

			Sampled: p.SampleInterval() != 0,
		})
	}
	return out
}

func (r fwRegistry) LDomByName(name string) (core.DSID, bool) {
	for _, ds := range core.SortedKeys(r.fw.ldoms) {
		if r.fw.ldoms[ds].Spec.Name == name {
			return ds, true
		}
	}
	return 0, false
}

func (r fwRegistry) LDomExists(ds core.DSID) bool {
	_, ok := r.fw.ldoms[ds]
	return ok
}

// PolicyRegistry exposes the firmware's live control-plane and LDom
// naming environment as a policy.Registry. The federated cluster
// controller compiles intents against it; per-server policy loads use
// it implicitly through LoadPolicy/ValidatePolicy.
func (fw *Firmware) PolicyRegistry() policy.Registry { return fwRegistry{fw} }

// ValidatePolicy parses and typechecks policy source against the
// mounted planes without installing anything. LDom names that do not
// exist yet are tolerated (they resolve at load time); statistic and
// parameter references are checked strictly. filename is used for
// error positions.
func (fw *Firmware) ValidatePolicy(filename, source string) (*policy.Program, error) {
	f, err := policy.Parse(filename, source)
	if err != nil {
		return nil, err
	}
	return policy.Compile(f, fwRegistry{fw}, policy.Options{AllowUnboundLDoms: true})
}

// compilePolicy is the strict load-time compile: every LDom reference
// must resolve against the live LDom table.
func (fw *Firmware) compilePolicy(name, source string) (*policy.Program, error) {
	f, err := policy.Parse(name+".pard", source)
	if err != nil {
		return nil, err
	}
	return policy.Compile(f, fwRegistry{fw}, policy.Options{})
}

// LoadPolicy compiles policy source against the live registries and
// installs it: one trigger-table entry plus one synthesized action per
// rule, and a /sys/cpa/policy/<name> subtree. Loading fails — without
// side effects — on any parse/type error, on a write conflict with an
// already-loaded policy, or if the trigger tables lack capacity.
func (fw *Firmware) LoadPolicy(name, source string) error {
	if err := checkPolicyName(name); err != nil {
		return err
	}
	if _, dup := fw.policies[name]; dup {
		return fmt.Errorf("prm: policy %q already loaded (use ReloadPolicy to swap it)", name)
	}
	prog, err := fw.compilePolicy(name, source)
	if err != nil {
		return err
	}
	if err := fw.conflictWithLoaded(name, prog, ""); err != nil {
		return err
	}
	if err := fw.policyCapacity(prog, nil); err != nil {
		return err
	}
	set, err := fw.installPolicy(name, source, prog)
	if err != nil {
		return err
	}
	fw.policies[name] = set
	fw.addPolicyTree(set)
	fw.journal.Record(telemetry.Event{
		Kind:   telemetry.KindPolicyLoad,
		Origin: fw.Origin(),
		Name:   name,
		New:    uint64(len(set.rules)),
		Detail: fmt.Sprintf("%d rules, %d schedules", len(set.rules), len(set.scheds)),
	})
	return nil
}

// ReloadPolicy atomically swaps a loaded policy for a new version: the
// new source is fully compiled, conflict-checked against every other
// loaded policy, and capacity-checked (counting the old version's
// slots as free) before the old triggers are torn down. On any
// validation error the old policy keeps running untouched. Loading a
// name that is not yet loaded is an ordinary load.
func (fw *Firmware) ReloadPolicy(name, source string) error {
	old, ok := fw.policies[name]
	if !ok {
		return fw.LoadPolicy(name, source)
	}
	prog, err := fw.compilePolicy(name, source)
	if err != nil {
		return err
	}
	if err := fw.conflictWithLoaded(name, prog, name); err != nil {
		return err
	}
	reuse := map[int]int{}
	for _, pr := range old.rules {
		reuse[pr.c.CPA]++
	}
	if err := fw.policyCapacity(prog, reuse); err != nil {
		return err
	}

	// Commit point: every check passed, so teardown + install cannot
	// fail on capacity. Old triggers are disabled through MMIO before
	// the new ones land in the freed slots.
	fw.teardownPolicy(old)
	delete(fw.policies, name)
	fw.fs.Remove("/sys/cpa/policy/" + name)

	set, err := fw.installPolicy(name, source, prog)
	if err != nil {
		return fmt.Errorf("prm: reload %q: %w (policy is now unloaded)", name, err)
	}
	fw.policies[name] = set
	fw.addPolicyTree(set)
	fw.journal.Record(telemetry.Event{
		Kind:   telemetry.KindPolicyReload,
		Origin: fw.Origin(),
		Name:   name,
		New:    uint64(len(set.rules)),
		Detail: fmt.Sprintf("%d rules, %d schedules", len(set.rules), len(set.scheds)),
	})
	return nil
}

// UnloadPolicy tears a policy's triggers down and removes its device
// nodes.
func (fw *Firmware) UnloadPolicy(name string) error {
	set, ok := fw.policies[name]
	if !ok {
		return fmt.Errorf("prm: no policy %q loaded", name)
	}
	fw.teardownPolicy(set)
	delete(fw.policies, name)
	fw.fs.Remove("/sys/cpa/policy/" + name)
	fw.journal.Record(telemetry.Event{
		Kind:   telemetry.KindPolicyUnload,
		Origin: fw.Origin(),
		Name:   name,
	})
	return nil
}

// Policies returns the loaded policy names, sorted.
func (fw *Firmware) Policies() []string { return core.SortedKeys(fw.policies) }

// checkPolicyName keeps policy names safe for device-tree paths.
func checkPolicyName(name string) error {
	if name == "" {
		return fmt.Errorf("prm: empty policy name")
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-', r == '.':
		default:
			return fmt.Errorf("prm: policy name %q: only letters, digits, '.', '_' and '-' are allowed", name)
		}
	}
	return nil
}

// conflictWithLoaded checks a candidate program against every loaded
// policy except skip (the one being replaced), qualifying rule names
// with their policy for readable errors.
func (fw *Firmware) conflictWithLoaded(name string, prog *policy.Program, skip string) error {
	var all []*policy.CompiledRule
	add := func(pname string, c *policy.CompiledRule) {
		qualified := *c
		qualified.Qual = pname + "/" + c.Name
		all = append(all, &qualified)
	}
	for _, pname := range core.SortedKeys(fw.policies) {
		if pname == skip {
			continue
		}
		for _, pr := range fw.policies[pname].rules {
			add(pname, pr.c)
		}
	}
	for _, c := range prog.Rules {
		add(name, c)
	}
	if err := policy.CheckConflicts(all); err != nil {
		return err
	}

	// A plane runs one scheduling algorithm, so two loaded policies may
	// not both schedule it: qualify each set's schedules and reuse the
	// same duplicate-plane check Compile applies within one program.
	var scheds []*policy.CompiledSchedule
	addSched := func(pname string, cs *policy.CompiledSchedule) {
		qualified := *cs
		qualified.Qual = pname + ": " + cs.Schedule.String()
		scheds = append(scheds, &qualified)
	}
	for _, pname := range core.SortedKeys(fw.policies) {
		if pname == skip {
			continue
		}
		for _, ps := range fw.policies[pname].scheds {
			addSched(pname, ps.c)
		}
	}
	for _, cs := range prog.Schedules {
		addSched(name, cs)
	}
	return policy.CheckScheduleConflicts(scheds)
}

// policyCapacity verifies the trigger tables can hold the program,
// with reuse[cpa] slots about to be freed by a reload.
func (fw *Firmware) policyCapacity(prog *policy.Program, reuse map[int]int) error {
	need := map[int]int{}
	for _, c := range prog.Rules {
		need[c.CPA]++
	}
	for _, idx := range core.SortedKeys(need) {
		cpa, err := fw.CPA(idx)
		if err != nil {
			return err
		}
		free := 0
		for slot := 0; slot < cpa.Plane.TriggerSlots(); slot++ {
			en, err := cpa.ReadEntry(core.DSID(slot), core.TrigColEnabled, core.SelTrigger)
			if err != nil {
				return err
			}
			if en == 0 {
				free++
			}
		}
		if free+reuse[idx] < need[idx] {
			return fmt.Errorf("prm: cpa%d has %d free trigger slots; policy needs %d", idx, free+reuse[idx], need[idx])
		}
	}
	return nil
}

// installPolicy registers one synthesized action per rule and programs
// the trigger tables. On a partial failure everything installed so far
// is rolled back.
func (fw *Firmware) installPolicy(name, source string, prog *policy.Program) (*policySet, error) {
	set := &policySet{name: name, source: source, prog: prog}
	// Scheduler installations apply first: a policy whose rules tune a
	// scheduling algorithm's parameters (say EDF's lat_target) must see
	// that algorithm in force from the first sample. teardownPolicy
	// restores the displaced algorithms, so a partial failure below
	// rolls these back too.
	for _, cs := range prog.Schedules {
		cpa, err := fw.CPA(cs.CPA)
		if err != nil {
			fw.teardownPolicy(set)
			return nil, err
		}
		prev := cpa.Plane.SchedulerAlgo()
		if err := cpa.Plane.InstallScheduler(cs.Algo); err != nil {
			fw.teardownPolicy(set)
			return nil, err
		}
		set.scheds = append(set.scheds, &policySched{c: cs, prev: prev})
		fw.journal.Record(telemetry.Event{
			Kind:   telemetry.KindSchedInstall,
			Origin: "policy:" + name,
			Plane:  fw.mounts[cs.CPA].name,
			Name:   cs.Algo,
			Detail: "displaced " + prev,
		})
	}
	for _, c := range prog.Rules {
		pr := &policyRule{c: c, actionName: "policy/" + name + "/" + c.Name}
		fw.RegisterAction(pr.actionName, func(fw *Firmware, _ core.Notification) error {
			return fw.policyWrites(pr)
		})
		// Install under the rule's identity so trigger firings,
		// suppressions and the action's writes journal with the rule as
		// their origin.
		var slot int
		var err error
		fw.WithOrigin("policy:"+name+"/"+c.Name, func() {
			slot, err = fw.InstallTriggerSpec(c.CPA, TriggerSpec{
				DSID:       c.DSID,
				Stat:       c.Stat,
				Op:         c.Op,
				Value:      c.Threshold,
				Level:      c.Level,
				Hysteresis: c.Hysteresis,
				Action:     pr.actionName,
				Cooldown:   c.Cooldown,
				LimitN:     c.LimitN,
				LimitPer:   c.LimitPer,
			})
		})
		if err != nil {
			delete(fw.actions, pr.actionName)
			fw.teardownPolicy(set)
			return nil, err
		}
		pr.slot = slot
		pr.b = fw.bindings[slotKey{cpa: c.CPA, slot: slot}]
		set.rules = append(set.rules, pr)
	}
	return set, nil
}

// teardownPolicy disables and unbinds every trigger of a set and
// restores the scheduling algorithms its schedules displaced.
func (fw *Firmware) teardownPolicy(set *policySet) {
	for _, pr := range set.rules {
		if err := fw.removeTrigger(pr.c.CPA, pr.slot); err != nil {
			fw.journalError("policy:"+set.name, fmt.Sprintf("cpa%d", pr.c.CPA), pr.c.DSID, pr.actionName,
				fmt.Sprintf("teardown %s: %v", pr.actionName, err))
		}
		delete(fw.actions, pr.actionName)
	}
	set.rules = nil
	for i := len(set.scheds) - 1; i >= 0; i-- {
		ps := set.scheds[i]
		cpa, err := fw.CPA(ps.c.CPA)
		if err == nil {
			err = cpa.Plane.InstallScheduler(ps.prev)
		}
		if err != nil {
			fw.journalError("policy:"+set.name, fmt.Sprintf("cpa%d", ps.c.CPA), 0, ps.prev,
				fmt.Sprintf("teardown schedule cpa%d: %v", ps.c.CPA, err))
			continue
		}
		fw.journal.Record(telemetry.Event{
			Kind:   telemetry.KindSchedRestore,
			Origin: "policy:" + set.name,
			Plane:  fw.mounts[ps.c.CPA].name,
			Name:   ps.prev,
			Detail: "displaced " + ps.c.Algo,
		})
	}
	set.scheds = nil
}

// policyWrites applies a rule's write set through the CPA MMIO path,
// enumerating target sets in DS-id order for determinism.
func (fw *Firmware) policyWrites(pr *policyRule) error {
	for i := range pr.c.Writes {
		w := &pr.c.Writes[i]
		cpa, err := fw.CPA(w.CPA)
		if err != nil {
			return err
		}
		col, ok := cpa.Plane.Params().ColumnIndex(w.Param)
		if !ok {
			return fmt.Errorf("prm: cpa%d lost parameter %q", w.CPA, w.Param)
		}
		for _, ds := range fw.writeTargets(w) {
			old, err := cpa.ReadEntry(ds, col, core.SelParameter)
			if err != nil {
				return err
			}
			if err := cpa.WriteEntry(ds, col, core.SelParameter, w.Apply(old)); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeTargets resolves a write's selector to concrete DS-ids.
func (fw *Firmware) writeTargets(w *policy.Write) []core.DSID {
	switch w.Sel {
	case policy.WriteOthers:
		var out []core.DSID
		for _, ds := range core.SortedKeys(fw.ldoms) {
			if ds != w.DSID {
				out = append(out, ds)
			}
		}
		return out
	case policy.WriteAll:
		return core.SortedKeys(fw.ldoms)
	default:
		return []core.DSID{w.DSID}
	}
}

// addPolicyTree exposes a loaded set under /sys/cpa/policy/<name>:
// the source text plus per-rule text/state/fired/suppressed leaves.
func (fw *Firmware) addPolicyTree(set *policySet) {
	base := "/sys/cpa/policy/" + set.name
	fw.fs.AddFile(base+"/source", func() (string, error) { return set.source, nil }, nil)
	if len(set.scheds) > 0 {
		fw.fs.AddFile(base+"/schedules", func() (string, error) {
			var b strings.Builder
			for _, ps := range set.scheds {
				fmt.Fprintf(&b, "cpa%d %s (was %s)\n", ps.c.CPA, ps.c.Algo, ps.prev)
			}
			return strings.TrimRight(b.String(), "\n"), nil
		}, nil)
	}
	for _, pr := range set.rules {
		pr := pr
		rb := base + "/rules/" + pr.c.Name
		fw.fs.AddFile(rb+"/text", func() (string, error) { return pr.c.Rule.String(), nil }, nil)
		fw.fs.AddFile(rb+"/state", func() (string, error) {
			cpa, err := fw.CPA(pr.c.CPA)
			if err != nil {
				return "", err
			}
			en, err := cpa.ReadEntry(core.DSID(pr.slot), core.TrigColEnabled, core.SelTrigger)
			if err != nil {
				return "", err
			}
			state := "enabled"
			if en == 0 {
				state = "disabled"
			}
			return fmt.Sprintf("cpa%d slot %d %s fired=%d suppressed=%d",
				pr.c.CPA, pr.slot, state, pr.b.runs, pr.b.suppressed), nil
		}, nil)
		fw.fs.AddFile(rb+"/fired", func() (string, error) {
			return strconv.FormatUint(pr.b.runs, 10), nil
		}, nil)
		fw.fs.AddFile(rb+"/suppressed", func() (string, error) {
			return strconv.FormatUint(pr.b.suppressed, 10), nil
		}, nil)
	}
}

// explainDepth is how many of a rule's latest firings explain shows.
const explainDepth = 16

// ExplainPolicies renders every loaded policy (or just one) from the
// audit journal — the backing store of `pardctl policy explain` and the
// console's `policy explain`. Each rule shows its counts and its last
// explainDepth firings since the set's latest load or reload, oldest
// first, each with the statistic's value: an applied firing with the
// parameter writes it made, a suppressed one with what suppressed it.
// When none of those applied, the latest firing that did leads them.
func (fw *Firmware) ExplainPolicies(name string) (string, error) {
	names := fw.Policies()
	if name != "" {
		if _, ok := fw.policies[name]; !ok {
			return "", fmt.Errorf("prm: no policy %q loaded", name)
		}
		names = []string{name}
	}
	if len(names) == 0 {
		return "no policies loaded", nil
	}
	j := fw.journal
	var b strings.Builder
	for _, pname := range names {
		set := fw.policies[pname]
		fmt.Fprintf(&b, "policy %s (%d rules)\n", pname, len(set.rules))
		for _, ps := range set.scheds {
			fmt.Fprintf(&b, "%s/%s: installed on cpa%d (restores %q on unload)\n",
				pname, ps.c.Schedule.String(), ps.c.CPA, ps.prev)
		}
		// The set's history starts after its latest load or reload.
		start := -1
		for i := j.Len() - 1; i >= 0 && start < 0; i-- {
			if ev := j.At(i); ev.Name == pname &&
				(ev.Kind == telemetry.KindPolicyLoad || ev.Kind == telemetry.KindPolicyReload) {
				start = i + 1
			}
		}
		if start < 0 {
			if j.Dropped() > 0 {
				fmt.Fprintf(&b, "truncated: load event displaced with %d older events\n", j.Dropped())
			}
			start = 0
		}
		for _, pr := range set.rules {
			fmt.Fprintf(&b, "rule %s/%s: %s\n", pname, pr.c.Name, pr.c.Rule.String())
			fmt.Fprintf(&b, "  fired=%d suppressed=%d\n", pr.b.runs, pr.b.suppressed)
			if j == nil {
				b.WriteString("  (journal off: no firing history)\n")
				continue
			}
			lines, applied := explainFirings(pr, j, start)
			if len(lines) == 0 {
				b.WriteString("  (no firings recorded)\n")
			}
			from := max(0, len(lines)-explainDepth)
			if applied >= 0 && applied < from {
				// None of the lines shown applied: lead with the latest
				// firing that did, so its writes stay in view.
				b.WriteString(lines[applied])
				b.WriteByte('\n')
				if n := from - applied - 1; n > 0 {
					fmt.Fprintf(&b, "  ... %d firings omitted\n", n)
				}
			}
			for _, l := range lines[from:] {
				b.WriteString(l)
				b.WriteByte('\n')
			}
		}
	}
	return strings.TrimRight(b.String(), "\n"), nil
}

// explainFirings renders one line per firing of pr's trigger among
// the journal's events from index start on, oldest first, and returns
// the index of the latest applied one (-1 for none). An action's
// parameter writes follow its trigger_fired event under the same
// origin, so each joins the line of the firing before it.
func explainFirings(pr *policyRule, j *telemetry.Journal, start int) (lines []string, applied int) {
	c := pr.c
	op := policy.CmpSymbol(c.Op)
	applied = -1
	sep := "" // joins the next write onto the last line; "" drops it
	for i := start; i < j.Len(); i++ {
		ev := j.At(i)
		if ev.Origin != pr.b.origin {
			continue
		}
		switch ev.Kind {
		case telemetry.KindTriggerFired:
			applied = len(lines)
			lines = append(lines, fmt.Sprintf("  [%s] %s=%d %s %d -> applied",
				FormatTick(ev.When), c.Stat, ev.New, op, c.Threshold))
			sep = ": "
		case telemetry.KindTriggerSuppress:
			why := "cooldown"
			if strings.Contains(ev.Detail, " over rate limit ") {
				why = "rate limit"
			}
			lines = append(lines, fmt.Sprintf("  [%s] %s=%d %s %d -> suppressed (%s)",
				FormatTick(ev.When), c.Stat, ev.New, op, c.Threshold, why))
			sep = ""
		case telemetry.KindParamWrite:
			if sep == "" {
				continue
			}
			lines[len(lines)-1] += fmt.Sprintf("%s%s %s -> %s (%s ldom%d)", sep,
				ev.Name, formatValue(ev.Name, ev.Old), formatValue(ev.Name, ev.New), ev.Plane, ev.DS)
			sep = ", "
		}
	}
	return lines, applied
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

// shPolicy implements the firmware console's `policy` command:
//
//	policy                      list loaded policies
//	policy show <name>          print a policy's source
//	policy explain [<name>]     recent firings per rule, from the journal
//	policy unload <name>        tear a policy down
//
// (Loading needs file access and lives in the platform console /
// pardctl, which read the .pard file and call LoadPolicy.)
func (fw *Firmware) shPolicy(args []string) (string, error) {
	if len(args) == 0 {
		names := fw.Policies()
		if len(names) == 0 {
			return "no policies loaded", nil
		}
		var b strings.Builder
		for _, name := range names {
			set := fw.policies[name]
			var fired, suppressed uint64
			for _, pr := range set.rules {
				fired += pr.b.runs
				suppressed += pr.b.suppressed
			}
			fmt.Fprintf(&b, "%s: %d rules, fired=%d suppressed=%d\n", name, len(set.rules), fired, suppressed)
		}
		return strings.TrimRight(b.String(), "\n"), nil
	}
	switch args[0] {
	case "show":
		if len(args) != 2 {
			return "", fmt.Errorf("prm: usage: policy show <name>")
		}
		set, ok := fw.policies[args[1]]
		if !ok {
			return "", fmt.Errorf("prm: no policy %q loaded", args[1])
		}
		return strings.TrimRight(set.source, "\n"), nil
	case "explain":
		name := ""
		if len(args) > 1 {
			name = args[1]
		}
		return fw.ExplainPolicies(name)
	case "unload":
		if len(args) != 2 {
			return "", fmt.Errorf("prm: usage: policy unload <name>")
		}
		if err := fw.UnloadPolicy(args[1]); err != nil {
			return "", err
		}
		return fmt.Sprintf("policy %q unloaded", args[1]), nil
	}
	return "", fmt.Errorf("prm: usage: policy [show <name> | explain [<name>] | unload <name>]")
}
