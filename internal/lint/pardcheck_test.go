package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/policy"
	"repro/pard"
)

// livePolicyCompiler boots the reference cluster of default servers,
// as `pardlint ./...` does, so fixture policies compile against a real
// server's control-plane schemas and intent files against the cluster
// `pardctl intent validate` compiles against.
func livePolicyCompiler(t *testing.T) (PolicyCompiler, policy.IntentTopology) {
	t.Helper()
	ref := cluster.Ref()
	c, err := pard.NewCluster(pard.ClusterConfig{
		Racks: ref.Racks, ServersPerRack: ref.ServersPerRack, Spines: ref.Spines, Server: pard.DefaultConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return c.Servers[0].Firmware.ValidatePolicy, c.Controller.IntentTopology()
}

func TestPardcheckFixtures(t *testing.T) {
	compile, topo := livePolicyCompiler(t)
	diags, err := CheckPolicyFiles(filepath.Join("testdata", "policies"), compile, topo)
	if err != nil {
		t.Fatal(err)
	}
	byFile := map[string][]Diagnostic{}
	for _, d := range diags {
		if d.Analyzer != "pardcheck" {
			t.Errorf("policy file produced a non-pardcheck diagnostic: %v", d)
		}
		byFile[filepath.Base(d.Pos.Filename)] = append(byFile[filepath.Base(d.Pos.Filename)], d)
	}

	if got := byFile["oscillate.pard"]; len(got) != 1 || !strings.Contains(got[0].Message, "raise/lower pair") {
		t.Errorf("oscillate.pard: want one raise/lower finding, got %v", got)
	}
	if got := byFile["unreachable.pard"]; len(got) != 1 || !strings.Contains(got[0].Message, "can never fire") {
		t.Errorf("unreachable.pard: want one unreachable finding, got %v", got)
	}
	if got := byFile["suppressed.pard"]; len(got) != 0 {
		t.Errorf("suppressed.pard: ignore comment must silence the finding, got %v", got)
	}
	if got := byFile["clean.pard"]; len(got) != 0 {
		t.Errorf("clean.pard: want no findings, got %v", got)
	}
}

// Every tracked .pard file in the repository — the shipped example
// policies — must compile and pass pardcheck, exactly as
// `pardlint ./...` enforces in CI. Fixture directories are skipped by
// CheckPolicyFiles's testdata rule.
func TestPolicyFilesCleanAtHead(t *testing.T) {
	compile, topo := livePolicyCompiler(t)
	diags, err := CheckPolicyFiles(filepath.Join("..", ".."), compile, topo)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("head is not pardcheck-clean: %v", d)
	}
}

// An intent may name any server of the reference cluster `pardctl
// intent validate` boots, the last rack included.
func TestIntentFilesSeeReferenceCluster(t *testing.T) {
	dir := t.TempDir()
	src := `intent last_rack {
    servers rack3-*;
    target miss_rate <= 30% on llc;
    protect ldom svc on cpa*;
}
`
	if err := os.WriteFile(filepath.Join(dir, "last_rack.pard"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	compile, topo := livePolicyCompiler(t)
	diags, err := CheckPolicyFiles(dir, compile, topo)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("intent naming rack3 servers: %v", d)
	}
}
