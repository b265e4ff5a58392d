package lint

import (
	"fmt"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"repro/internal/policy"
)

// This file wires pardcheck — the .pard abstract interpreter in
// internal/policy — into the pardlint driver, so `pardlint ./...`
// covers policy files with the same reporting and suppression
// conventions as Go sources. Policy files carry suppressions as
// comments: `# pardlint:ignore pardcheck <reason>` on the finding's
// line or the line above it.

// PolicyCompiler compiles one .pard source against live control-plane
// schemas; prm.Firmware.ValidatePolicy has this shape. Keeping it an
// injected function spares internal/lint a dependency on the whole
// platform assembly just to know the plane schemas.
type PolicyCompiler func(filename, source string) (*policy.Program, error)

var pardIgnoreRe = regexp.MustCompile(`#\s*pardlint:ignore\s+([A-Za-z0-9_,]+)`)

// CheckPolicyFiles compiles and abstractly interprets every .pard file
// under root (skipping testdata and hidden directories) and returns
// pardcheck diagnostics: compile failures plus policy.Lint findings
// not covered by an ignore comment. Files declaring intents compile
// through the intent compiler against topo, the reference cluster
// `pardctl intent` boots (a topology without servers reports intent
// files as uncheckable).
func CheckPolicyFiles(root string, compile PolicyCompiler, topo policy.IntentTopology) ([]Diagnostic, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || (strings.HasPrefix(name, ".") && path != root) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".pard") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(files)

	var out []Diagnostic
	for _, path := range files {
		diags, err := checkPolicyFile(path, compile, topo)
		if err != nil {
			return nil, err
		}
		out = append(out, diags...)
	}
	sortDiags(out)
	return out, nil
}

func checkPolicyFile(path string, compile PolicyCompiler, topo policy.IntentTopology) ([]Diagnostic, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ignored := policyIgnoreLines(string(src))
	report := func(pos policy.Pos, msg string) []Diagnostic {
		if ignored[pos.Line] {
			return nil
		}
		return []Diagnostic{{
			Analyzer: "pardcheck",
			Pos:      token.Position{Filename: path, Line: pos.Line, Column: pos.Col},
			Message:  msg,
		}}
	}

	// Intent files take the cluster path: compile against the reference
	// topology, then lint every emitted per-server program.
	if f, perr := policy.Parse(filepath.Base(path), string(src)); perr == nil && len(f.Intents) > 0 {
		return checkIntentFile(f, topo, report)
	}

	prog, err := compile(filepath.Base(path), string(src))
	if err != nil {
		if pe, ok := err.(*policy.PosError); ok {
			return report(pe.Pos, fmt.Sprintf("policy does not compile: %s", pe.Msg)), nil
		}
		return []Diagnostic{{
			Analyzer: "pardcheck",
			Pos:      token.Position{Filename: path, Line: 1, Column: 1},
			Message:  fmt.Sprintf("policy does not compile: %v", err),
		}}, nil
	}

	var out []Diagnostic
	for _, issue := range policy.Lint(prog) {
		out = append(out, report(issue.Pos, issue.Msg)...)
	}
	return out, nil
}

func checkIntentFile(f *policy.File, topo policy.IntentTopology, report func(policy.Pos, string) []Diagnostic) ([]Diagnostic, error) {
	if len(topo.Servers) == 0 {
		return report(policy.Pos{Line: 1, Col: 1}, "intent file cannot be checked without a reference topology"), nil
	}
	cis, err := policy.CompileIntents(f, topo, policy.Options{AllowUnboundLDoms: true})
	if err != nil {
		if pe, ok := err.(*policy.PosError); ok {
			return report(pe.Pos, fmt.Sprintf("intent does not compile: %s", pe.Msg)), nil
		}
		return report(policy.Pos{Line: 1, Col: 1}, fmt.Sprintf("intent does not compile: %v", err)), nil
	}
	// Every server of the reference topology shares one registry, so
	// the emitted programs — and their findings — are identical across
	// servers; lint one per intent and dedupe by position and message.
	var out []Diagnostic
	seen := map[string]bool{}
	for _, ci := range cis {
		for _, sp := range ci.Policies {
			for _, issue := range policy.Lint(sp.Program) {
				key := fmt.Sprintf("%d:%d:%s", issue.Pos.Line, issue.Pos.Col, issue.Msg)
				if seen[key] {
					continue
				}
				seen[key] = true
				// The emitted program's positions point into generated
				// source; anchor the finding at the intent declaration.
				out = append(out, report(ci.Intent.Pos,
					fmt.Sprintf("intent %q lowers to a policy with findings: %s", ci.Intent.Name, issue.Msg))...)
			}
			break // identical across servers; one is enough
		}
	}
	return out, nil
}

// policyIgnoreLines returns the set of source lines covered by a
// `# pardlint:ignore pardcheck` comment: the comment's own line and
// the line below it, mirroring the Go directive convention.
func policyIgnoreLines(src string) map[int]bool {
	out := map[int]bool{}
	for i, line := range strings.Split(src, "\n") {
		m := pardIgnoreRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		for _, name := range strings.Split(m[1], ",") {
			if name == "pardcheck" {
				out[i+1] = true
				out[i+2] = true
			}
		}
	}
	return out
}
