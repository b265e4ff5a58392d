// Command pardctl boots a PARD server and exposes the PRM firmware's
// operator console on stdin — the paper's §5 interface. Beyond the
// firmware commands (cat, echo, ls, tree, pardtrigger, policy, ldoms,
// log) it adds platform commands:
//
//	create <name> <coreID> [priority]   create an LDom on a core
//	workload <coreID> stream|flush|memcached|dd|lbm|leslie3d
//	run <milliseconds>                  advance simulated time
//	policy validate|apply <file.pard>   check or hot-load a policy file
//	stats                               per-LDom LLC/memory summary
//	trace                               per-hop latency breakdown + memory-path packet probe
//	telemetry | top [prefix] | journal [n]   time-series and audit-journal views
//	help
//	exit
//
// It also runs non-interactively on policy files:
//
//	pardctl policy validate <file.pard>...   typecheck against a booted server
//	pardctl policy show <file.pard>          print the canonical form
//	pardctl policy apply <file.pard>...      load files, then open the console
//	pardctl policy explain <file.pard>       load, drive contention, show recent firings
//
// and on the telemetry plane, booting a contended demo server:
//
//	pardctl top [-server NAME] [ms]      run the demo for ms (default 5) and print series
//	pardctl journal [-server NAME] [ms]  run the demo and print the control-plane audit log
//
// With -server the demo boots the reference 4-rack leaf/spine cluster
// instead, rolls out the example memtier intent through the federated
// controller, and prints the named member's view ("" for cluster-wide,
// "cluster" under top for the sums over the members only).
//
// Cluster intents (§8: DS-ids beyond one machine) compile against the
// same reference cluster:
//
//	pardctl intent validate <file.pard>...   compile intents against the live topology
//	pardctl intent explain <file.pard>       print the per-server policies + switch writes
//	pardctl intent apply <file.pard>...      roll out via the controller, run, report
//
// Example session:
//
//	create web 0 1
//	create batch 1
//	workload 0 memcached
//	workload 1 flush
//	pardtrigger cpa0 -ldom=0 -stats=miss_rate -cond=gt,300 -action=llc_grow_to_half
//	run 20
//	cat /sys/cpa/cpa0/ldoms/ldom0/parameters/waymask
//
// For remote operation over the management network, see cmd/pardd.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/policy"
	"repro/internal/workload"
	"repro/pard"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "policy" {
		os.Exit(policyMain(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "intent" {
		os.Exit(intentMain(os.Args[2:]))
	}
	if len(os.Args) > 1 && (os.Args[1] == "top" || os.Args[1] == "journal") {
		os.Exit(telemetryMain(os.Args[1], os.Args[2:]))
	}
	sys := bootSystem()
	fmt.Println("PARD server booted: 4 cores, 4MB LLC, DDR3-1600, 5 control planes.")
	fmt.Println("Type 'help' for commands.")
	interact(sys)
}

func bootSystem() *pard.System {
	cfg := pard.DefaultConfig()
	cfg.ProbeMemory = true
	cfg.TraceSample = 64 // flight recorder at 1-in-64 sampling
	sys := pard.NewSystem(cfg)
	sys.ConsoleOrigin = "pardctl"
	return sys
}

// telemetryMain drives `pardctl top` / `pardctl journal`: boot a
// contended two-LDom demo, run it, and print the requested view. With
// -server the demo scales up to the reference cluster and the view
// narrows to one member (or, with -server="", stays cluster-wide).
func telemetryMain(view string, args []string) int {
	fs := flag.NewFlagSet("pardctl "+view, flag.ContinueOnError)
	server := fs.String("server", "", `cluster member to select (boots the reference 4-rack cluster; "" keeps the cluster-wide view)`)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	serverSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "server" {
			serverSet = true
		}
	})
	args = fs.Args()
	ms := uint64(5)
	if len(args) > 0 {
		v, err := strconv.ParseUint(args[0], 10, 32)
		if err != nil {
			fmt.Fprintf(os.Stderr, "usage: pardctl %s [-server NAME] [milliseconds]\n", view)
			return 2
		}
		ms = v
	}
	if serverSet {
		return clusterTelemetry(view, *server, ms)
	}
	cfg := pard.DefaultConfig()
	cfg.LLC.SizeBytes = 256 * 1024 // small LLC so contention shows fast
	cfg.SampleInterval = 50 * pard.Microsecond
	sys := pard.NewSystem(cfg)
	sys.ConsoleOrigin = "pardctl"
	for _, cmd := range []string{
		"create svc 0 1",
		"create batch 1",
		"workload 0 stream",
		"workload 1 flush",
		"pardtrigger cpa0 -ldom=0 -stats=miss_rate -cond=gt,300 -action=llc_grow_to_half",
		fmt.Sprintf("run %d", ms),
	} {
		if _, err := pard.Dispatch(sys, cmd); err != nil {
			fmt.Fprintln(os.Stderr, "pardctl:", err)
			return 1
		}
	}
	out, err := pard.Dispatch(sys, view)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pardctl:", err)
		return 1
	}
	fmt.Println(out)
	return 0
}

func interact(sys *pard.System) {
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("prm> ")
		if !sc.Scan() {
			break
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line == "exit" || line == "quit" {
			break
		}
		out, err := pard.Dispatch(sys, line)
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		if out != "" {
			fmt.Println(out)
		}
	}
}

const policyUsage = "usage: pardctl policy {validate|show|apply|explain} <file.pard>..."

// policyMain is the non-interactive `pardctl policy` entry point.
func policyMain(args []string) int {
	if len(args) < 2 {
		fmt.Fprintln(os.Stderr, policyUsage)
		return 2
	}
	sub, files := args[0], args[1:]
	switch sub {
	case "validate":
		// Typecheck each file against a freshly booted server's control
		// planes. LDom names need not exist yet; statistic and parameter
		// names must. Files that compile are also run through pardcheck,
		// the interval-analysis linter: unreachable rules, dead triggers
		// and undamped raise/lower pairs print as warnings.
		sys := pard.NewSystem(pard.DefaultConfig())
		bad := 0
		for _, f := range files {
			issues, err := sys.LintPolicyFile(f)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				bad++
				continue
			}
			for _, issue := range issues {
				fmt.Printf("%s: warning: %s\n", f, issue)
			}
			fmt.Printf("%s: ok\n", f)
		}
		if bad > 0 {
			return 1
		}

	case "show":
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			file, err := policy.Parse(filepath.Base(f), string(src))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			fmt.Print(file.String())
		}

	case "apply":
		sys := bootSystem()
		for _, f := range files {
			if err := sys.ApplyPolicyFile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			fmt.Printf("applied %s\n", f)
		}
		fmt.Println("PARD server booted with policies loaded. Type 'help' for commands.")
		interact(sys)

	case "explain":
		if len(files) != 1 {
			fmt.Fprintln(os.Stderr, "usage: pardctl policy explain <file.pard>")
			return 2
		}
		out, err := explainPolicy(files[0])
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Println(out)

	default:
		fmt.Fprintln(os.Stderr, policyUsage)
		return 2
	}
	return 0
}

// explainPolicy demonstrates a policy file end to end: boot a small
// contended server, create one LDom per name the policy references,
// load the policy, run long enough for triggers to fire, and render
// each rule's recent firings from the audit journal.
func explainPolicy(path string) (string, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	cfg := pard.DefaultConfig()
	cfg.LLC.SizeBytes = 256 * 1024 // small LLC so contention shows fast
	cfg.SampleInterval = 50 * pard.Microsecond
	sys := pard.NewSystem(cfg)

	// A validation pass with unbound LDoms allowed reports the names the
	// policy expects, in order of first reference.
	prog, err := sys.Firmware.ValidatePolicy(filepath.Base(path), string(src))
	if err != nil {
		return "", err
	}
	names := prog.Unbound
	if len(names) == 0 {
		names = []string{"svc"}
	}
	for i, name := range names {
		coreID := i % len(sys.Cores)
		prio := uint64(0)
		if i == 0 {
			prio = 1
		}
		if _, err := sys.CreateLDom(pard.LDomConfig{
			Name: name, Cores: []int{coreID},
			MemBase: uint64(i) * (1 << 30), Priority: prio, RowBuf: prio,
		}); err != nil {
			return "", err
		}
	}
	// Ensure at least two LDoms so there is someone to contend with.
	if len(names) == 1 {
		if _, err := sys.CreateLDom(pard.LDomConfig{
			Name: "contender", Cores: []int{1 % len(sys.Cores)}, MemBase: 1 << 30,
		}); err != nil {
			return "", err
		}
	}

	name := strings.TrimSuffix(filepath.Base(path), ".pard")
	if err := sys.LoadPolicy(name, string(src)); err != nil {
		return "", err
	}

	// The first LDom runs the service; everyone else thrashes the LLC.
	sys.RunWorkload(0, &pard.Stream{Base: 0, Footprint: 100 << 10, Compute: 4})
	contenders := len(names)
	if contenders == 1 {
		contenders = 2
	}
	for i := 1; i < contenders && i < len(sys.Cores); i++ {
		sys.RunWorkload(i, &workload.CacheFlush{
			Base: uint64(i) << 30, Footprint: 4 << 20, Seed: int64(i),
		})
	}
	sys.Run(5 * pard.Millisecond)

	return sys.Firmware.ExplainPolicies(name)
}
