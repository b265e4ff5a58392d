// Command pardlint runs the PARD domain-invariant static-analysis
// suite. Per-package analyzers — dsidprop (DS-id propagation),
// determinism (sim reproducibility), planeaccess (control/data-plane
// discipline), errflow (MMIO error handling), policyaction — are
// joined by interprocedural analyzers over the module-wide call graph:
// hotalloc (allocation-free hot paths), shardisolation (no mutable
// state shared between shard engines), dsidflow (literal-0 DS-ids
// flowing into packet tags), and pardcheck (abstract interpretation of
// .pard policy files). See LINTING.md for what each invariant protects
// and how to suppress a finding.
//
// Usage:
//
//	pardlint [-list] [-json] [-stale] [packages]
//
// Package patterns follow the go tool's shape ("./...", "./internal/sim");
// with no arguments the whole module is analyzed, including every
// tracked .pard policy file. -json emits findings as a JSON array.
// -stale restricts output to stale-suppression findings, printed as a
// removal checklist. Exit status is 1 when findings are reported, 2 on
// usage or load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/cluster"
	"repro/internal/lint"
	"repro/pard"
)

// jsonFinding is the -json output shape, one object per diagnostic.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	asJSON := flag.Bool("json", false, "emit findings as a JSON array")
	staleOnly := flag.Bool("stale", false, "list only stale suppressions, as a removal checklist")
	noPolicy := flag.Bool("nopolicy", false, "skip .pard policy files")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: pardlint [-list] [-json] [-stale] [-nopolicy] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		fmt.Printf("%-16s %s\n", "pardcheck", "abstract interpretation of .pard policy files: unreachable rules, dead triggers, undamped raise/lower pairs")
		return
	}

	patterns := flag.Args()
	wholeModule := len(patterns) == 0
	if wholeModule {
		patterns = []string{"./..."}
	}
	for _, p := range patterns {
		if p == "./..." {
			wholeModule = true
		}
	}

	loader, err := lint.NewLoader(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "pardlint:", err)
		os.Exit(2)
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pardlint:", err)
		os.Exit(2)
	}

	diags := lint.Run(pkgs, lint.All()...)

	// Policy files ride along on whole-module runs: boot the reference
	// cluster `pardctl intent` boots, of default servers, so pardcheck
	// compiles policies against a real server's control-plane schemas
	// and intent files against the cluster's servers and switches.
	if wholeModule && !*noPolicy {
		ref := cluster.Ref()
		c, err := pard.NewCluster(pard.ClusterConfig{
			Racks: ref.Racks, ServersPerRack: ref.ServersPerRack, Spines: ref.Spines, Server: pard.DefaultConfig(),
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "pardlint:", err)
			os.Exit(2)
		}
		policyDiags, err := lint.CheckPolicyFiles(".", c.Servers[0].Firmware.ValidatePolicy, c.Controller.IntentTopology())
		if err != nil {
			fmt.Fprintln(os.Stderr, "pardlint:", err)
			os.Exit(2)
		}
		diags = append(diags, policyDiags...)
	}

	if *staleOnly {
		var stale []lint.Diagnostic
		for _, d := range diags {
			if d.Analyzer == "stalesuppression" {
				stale = append(stale, d)
			}
		}
		diags = stale
	}

	cwd, _ := os.Getwd()
	rel := func(name string) string {
		if cwd != "" {
			if r, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(r, "..") {
				return r
			}
		}
		return name
	}

	if *asJSON {
		out := make([]jsonFinding, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonFinding{
				File: rel(d.Pos.Filename), Line: d.Pos.Line, Col: d.Pos.Column,
				Analyzer: d.Analyzer, Message: d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "pardlint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Printf("%s:%d:%d: %s: %s\n", rel(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
		}
	}
	if len(diags) > 0 {
		if !*asJSON {
			fmt.Fprintf(os.Stderr, "pardlint: %d finding(s) across %d package(s)\n", len(diags), len(pkgs))
		}
		os.Exit(1)
	}
}
