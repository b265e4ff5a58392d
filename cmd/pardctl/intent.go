package main

// `pardctl intent` — the cluster-side analogue of `pardctl policy`:
// compile intent files against the reference 4-rack × 2-server
// leaf/spine cluster, show the per-server policies and switch writes
// they lower to, or apply them through the federated controller and
// report the rollout. `pardctl top/journal -server NAME` select one
// member of the same reference cluster.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/cluster"
	"repro/internal/policy"
	"repro/pard"
)

const intentUsage = "usage: pardctl intent {validate|explain|apply} <file.pard>..."

// demoIntentSrc drives the `top -server` / `journal -server` demo so
// the member journals carry cluster-origin events: the same memtier
// intent examples/intents/memtier.pard ships.
const demoIntentSrc = `
intent memtier {
    target miss_rate <= 30% on llc;
    protect ldom svc on cpa*;
    fabric weight ldom svc = 4;
}
`

// bootRefCluster builds the reference cluster every intent subcommand
// compiles against: cluster.Ref's 4 racks × 2 small servers behind a
// leaf/spine fabric, with an LLC sized so the demo workload's miss
// rate crosses the example intents' envelopes. withWorkload also
// provisions the cross-rack workload (one svc LDom per server plus
// frame pumps).
func bootRefCluster(withWorkload bool) (*pard.Cluster, error) {
	scfg := pard.DefaultConfig()
	scfg.Cores = 2
	scfg.LLC.SizeBytes = 256 * 1024
	scfg.SampleInterval = 50 * pard.Microsecond
	ref := cluster.Ref()
	c, err := pard.NewCluster(pard.ClusterConfig{
		Racks: ref.Racks, ServersPerRack: ref.ServersPerRack, Spines: ref.Spines, Server: scfg,
	})
	if err != nil {
		return nil, err
	}
	if withWorkload {
		if err := pard.ProvisionClusterWorkload(c, 25); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// compileIntentFile parses one intent file and compiles it against the
// cluster's live topology.
func compileIntentFile(c *pard.Cluster, path string) ([]*policy.CompiledIntent, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f, err := policy.Parse(filepath.Base(path), string(src))
	if err != nil {
		return nil, err
	}
	if len(f.Intents) == 0 {
		return nil, fmt.Errorf("%s: no intent blocks (for per-server policies use `pardctl policy validate`)", path)
	}
	return c.Controller.CompileIntents(f, policy.Options{AllowUnboundLDoms: true})
}

// intentMain is the non-interactive `pardctl intent` entry point.
func intentMain(args []string) int {
	if len(args) < 2 {
		fmt.Fprintln(os.Stderr, intentUsage)
		return 2
	}
	sub, files := args[0], args[1:]
	switch sub {
	case "validate", "explain", "apply":
	default:
		fmt.Fprintln(os.Stderr, intentUsage)
		return 2
	}
	if sub == "explain" && len(files) != 1 {
		fmt.Fprintln(os.Stderr, "usage: pardctl intent explain <file.pard>")
		return 2
	}

	c, err := bootRefCluster(sub == "apply")
	if err != nil {
		fmt.Fprintln(os.Stderr, "pardctl:", err)
		return 1
	}

	bad := 0
	for _, path := range files {
		cis, err := compileIntentFile(c, path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			bad++
			continue
		}
		for _, ci := range cis {
			// Run the emitted programs through pardcheck's linter, like
			// `policy validate` does. Reference-cluster servers share one
			// schema, so one program per intent covers them all.
			warned := map[string]bool{}
			for _, sp := range ci.Policies {
				for _, issue := range policy.Lint(sp.Program) {
					if !warned[issue.Msg] {
						warned[issue.Msg] = true
						fmt.Printf("%s: warning: intent %q: %s\n", path, ci.Intent.Name, issue.Msg)
					}
				}
				break
			}
			switch sub {
			case "validate":
				fmt.Printf("%s: intent %q ok: %d server policies, %d switch writes\n",
					path, ci.Intent.Name, len(ci.Policies), len(ci.SwitchWrites))
			case "explain":
				explainIntent(ci)
			case "apply":
				if err := c.Controller.ApplyIntent(ci); err != nil {
					fmt.Fprintln(os.Stderr, "pardctl:", err)
					bad++
					continue
				}
				fmt.Printf("%s: applied intent %q to %d servers, %d switch writes\n",
					path, ci.Intent.Name, len(ci.Policies), len(ci.SwitchWrites))
			}
		}
	}
	if bad > 0 {
		return 1
	}

	if sub == "apply" {
		// Drive the cluster so the rolled-out guards observe real traffic,
		// then report the federation surfaces: what was applied, how the
		// cluster-level series moved, and the controller's audit journal.
		c.Run(5 * pard.Millisecond)
		fmt.Printf("\napplied intents: %s\n\n", strings.Join(c.Controller.Applied, ", "))
		fmt.Println(c.Controller.TopText("cluster"))
		txt, err := c.Controller.JournalText("", 20)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pardctl:", err)
			return 1
		}
		fmt.Println(txt)
	}
	return 0
}

// explainIntent prints what one compiled intent lowers to. The
// reference cluster's servers share one control-plane schema, so the
// emitted policies group into few distinct sources — usually one.
func explainIntent(ci *policy.CompiledIntent) {
	fmt.Printf("intent %q -> %d server policies, %d switch writes\n",
		ci.Intent.Name, len(ci.Policies), len(ci.SwitchWrites))
	var order []string
	servers := map[string][]string{}
	names := map[string]string{}
	for _, sp := range ci.Policies {
		if _, ok := servers[sp.Source]; !ok {
			order = append(order, sp.Source)
			names[sp.Source] = sp.Name
		}
		servers[sp.Source] = append(servers[sp.Source], sp.Server)
	}
	for _, src := range order {
		fmt.Printf("\npolicy %q on %s:\n", names[src], strings.Join(servers[src], ", "))
		fmt.Print(indent(src))
	}
	for _, w := range ci.SwitchWrites {
		target := fmt.Sprintf("ds%d (ldom %s)", w.DSID, w.LDom)
		if w.Unbound {
			target = fmt.Sprintf("ldom %s (unbound: skipped at apply)", w.LDom)
		}
		fmt.Printf("switch %s: %s %s = %d\n", w.Switch, target, w.Param, w.Value)
	}
}

func indent(s string) string {
	s = strings.TrimLeft(s, "\n")
	if !strings.HasSuffix(s, "\n") {
		s += "\n"
	}
	return "    " + strings.ReplaceAll(strings.TrimRight(s, "\n"), "\n", "\n    ") + "\n"
}

// clusterTelemetry drives `pardctl top/journal -server NAME`: boot the
// reference cluster, roll out the demo intent, run, and print the
// selected member's (or with an empty NAME, the cluster-wide) view.
func clusterTelemetry(view, server string, ms uint64) int {
	c, err := bootRefCluster(true)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pardctl:", err)
		return 1
	}
	f, err := policy.Parse("demo.pard", demoIntentSrc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pardctl:", err)
		return 1
	}
	cis, err := c.Controller.CompileIntents(f, policy.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "pardctl:", err)
		return 1
	}
	for _, ci := range cis {
		if err := c.Controller.ApplyIntent(ci); err != nil {
			fmt.Fprintln(os.Stderr, "pardctl:", err)
			return 1
		}
	}
	c.Run(pard.Tick(ms) * pard.Millisecond)

	switch view {
	case "top":
		if _, ok := c.Controller.Server(server); server != "" && server != "cluster" && !ok {
			fmt.Fprintf(os.Stderr, "pardctl: unknown server %q (members: %s)\n",
				server, strings.Join(memberNames(c), ", "))
			return 1
		}
		fmt.Println(c.Controller.TopText(server))
	case "journal":
		txt, err := c.Controller.JournalText(server, 20)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pardctl:", err)
			return 1
		}
		fmt.Println(txt)
	}
	return 0
}

func memberNames(c *pard.Cluster) []string {
	var out []string
	for _, s := range c.Controller.Servers() {
		out = append(out, s.Name)
	}
	return out
}
