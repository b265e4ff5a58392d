package prm

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/telemetry"
)

// policyRule is one installed rule: its compiled form, the trigger
// slot it occupies, and its runtime state.
type policyRule struct {
	c          *policy.CompiledRule
	slot       int
	st         *policy.RuleState
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
	fw.Logf("[%v] policy %q loaded (%d rules)", fw.engine.Now(), name, len(set.rules))
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
	fw.Logf("[%v] policy %q reloaded (%d rules)", fw.engine.Now(), name, len(set.rules))
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
	fw.Logf("[%v] policy %q unloaded", fw.engine.Now(), name)
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
		fw.Logf("[%v] policy %q: cpa%d scheduler %s -> %s", fw.engine.Now(), name, cs.CPA, prev, cs.Algo)
		fw.journal.Record(telemetry.Event{
			Kind:   telemetry.KindSchedInstall,
			Origin: "policy:" + name,
			Plane:  fw.mounts[cs.CPA].name,
			Name:   cs.Algo,
			Detail: "displaced " + prev,
		})
	}
	for _, c := range prog.Rules {
		pr := &policyRule{c: c, st: &policy.RuleState{}, actionName: "policy/" + name + "/" + c.Name}
		fw.RegisterAction(pr.actionName, fw.makePolicyAction(pr))
		// Install under the rule's identity so trigger firings and
		// suppressions journal with the rule as their origin.
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
			})
		})
		if err != nil {
			delete(fw.actions, pr.actionName)
			fw.teardownPolicy(set)
			return nil, err
		}
		pr.slot = slot
		fw.bindings[slotKey{cpa: c.CPA, slot: slot}].onCooldown = func(n core.Notification) {
			detail, _ := fw.policyWrites(pr, true)
			pr.st.Record(policy.Firing{
				When: n.When, Value: n.Value,
				Outcome: policy.OutcomeCooldown,
				Detail:  "would apply " + detail,
			})
		}
		set.rules = append(set.rules, pr)
	}
	return set, nil
}

// teardownPolicy disables and unbinds every trigger of a set and
// restores the scheduling algorithms its schedules displaced.
func (fw *Firmware) teardownPolicy(set *policySet) {
	for _, pr := range set.rules {
		if err := fw.removeTrigger(pr.c.CPA, pr.slot); err != nil {
			fw.Logf("  teardown %s: %v", pr.actionName, err)
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
			fw.Logf("  teardown schedule cpa%d: %v", ps.c.CPA, err)
			continue
		}
		fw.Logf("[%v] policy %q: cpa%d scheduler restored to %s", fw.engine.Now(), set.name, ps.c.CPA, ps.prev)
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

// makePolicyAction synthesizes the prm.Action for one compiled rule:
// rate-limit check, then the rule's write set applied through the CPA
// MMIO path, with every firing recorded for explain. The body runs
// under the rule's origin so its parameter writes journal as
// "policy:<set>/<rule>", not as anonymous firmware work.
func (fw *Firmware) makePolicyAction(pr *policyRule) Action {
	inner := fw.policyActionBody(pr)
	return func(fw *Firmware, n core.Notification) error {
		var err error
		fw.WithOrigin("policy:"+pr.actionName[len("policy/"):], func() { err = inner(fw, n) })
		return err
	}
}

func (fw *Firmware) policyActionBody(pr *policyRule) Action {
	return func(fw *Firmware, n core.Notification) error {
		if pr.c.LimitN > 0 && !pr.st.AllowRate(n.When, pr.c.LimitN, pr.c.LimitPer) {
			detail, _ := fw.policyWrites(pr, true)
			pr.st.Record(policy.Firing{
				When: n.When, Value: n.Value,
				Outcome: policy.OutcomeRateLimited,
				Detail:  "would apply " + detail,
			})
			fw.Logf("  policy %s: limit %d per %s reached; writes skipped",
				pr.actionName, pr.c.LimitN, policy.FormatTick(pr.c.LimitPer))
			return nil
		}
		detail, err := fw.policyWrites(pr, false)
		if err != nil {
			return err
		}
		pr.st.Record(policy.Firing{
			When: n.When, Value: n.Value,
			Outcome: policy.OutcomeApplied,
			Detail:  detail,
		})
		return nil
	}
}

// policyWrites applies (or, when dry, merely computes) a rule's write
// set and renders the replay detail. Target sets are enumerated in
// DS-id order for determinism.
func (fw *Firmware) policyWrites(pr *policyRule, dry bool) (string, error) {
	var parts []string
	for i := range pr.c.Writes {
		w := &pr.c.Writes[i]
		cpa, err := fw.CPA(w.CPA)
		if err != nil {
			return "", err
		}
		col, ok := cpa.Plane.Params().ColumnIndex(w.Param)
		if !ok {
			return "", fmt.Errorf("prm: cpa%d lost parameter %q", w.CPA, w.Param)
		}
		for _, ds := range fw.writeTargets(w) {
			old, err := cpa.ReadEntry(ds, col, core.SelParameter)
			if err != nil {
				return "", err
			}
			next := w.Apply(old)
			if !dry {
				if err := cpa.WriteEntry(ds, col, core.SelParameter, next); err != nil {
					return "", err
				}
			}
			parts = append(parts, fmt.Sprintf("%s %s -> %s (cpa%d ldom%d)",
				w.Param, formatValue(w.Param, old), formatValue(w.Param, next), w.CPA, ds))
		}
	}
	return strings.Join(parts, ", "), nil
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
				pr.c.CPA, pr.slot, state, pr.st.Fired, pr.st.Suppressed), nil
		}, nil)
		fw.fs.AddFile(rb+"/fired", func() (string, error) {
			return strconv.FormatUint(pr.st.Fired, 10), nil
		}, nil)
		fw.fs.AddFile(rb+"/suppressed", func() (string, error) {
			return strconv.FormatUint(pr.st.Suppressed, 10), nil
		}, nil)
	}
}

// ExplainPolicies renders the firing history of every loaded policy
// (or just one), oldest firing first per rule — the backing store of
// `pardctl policy explain` and the console's `policy explain`.
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
	var b strings.Builder
	for _, pname := range names {
		set := fw.policies[pname]
		fmt.Fprintf(&b, "policy %s (%d rules)\n", pname, len(set.rules))
		for _, ps := range set.scheds {
			fmt.Fprintf(&b, "%s/%s: installed on cpa%d (restores %q on unload)\n",
				pname, ps.c.Schedule.String(), ps.c.CPA, ps.prev)
		}
		for _, pr := range set.rules {
			qualified := *pr.c
			qualified.Qual = pname + "/" + pr.c.Name
			b.WriteString(policy.Explain(&qualified, pr.st))
		}
	}
	return strings.TrimRight(b.String(), "\n"), nil
}

// shPolicy implements the firmware console's `policy` command:
//
//	policy                      list loaded policies
//	policy show <name>          print a policy's source
//	policy explain [<name>]     replay recent firings per rule
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
				fired += pr.st.Fired
				suppressed += pr.st.Suppressed
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
