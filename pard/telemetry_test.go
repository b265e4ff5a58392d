package pard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/workload"
)

// telemetryEquivConfig is the rack-equivalence config with telemetry
// explicitly on or off.
func telemetryEquivConfig(disable bool) Config {
	cfg := equivConfig()
	cfg.Telemetry.Disable = disable
	return cfg
}

func rackDigestTelemetry(t *testing.T, n int, disable bool) string {
	t.Helper()
	return StateDigest(sequentialRack(t, telemetryEquivConfig(disable), n).Servers)
}

func parallelDigestTelemetry(t *testing.T, n, shards int, disable bool) string {
	t.Helper()
	return StateDigest(shardedRing(t, telemetryEquivConfig(disable), n, shards, shards).Servers)
}

// TestTelemetryDigestInvariance is the acceptance gate: scraping and
// journaling must never perturb simulation state. For a 4-server rack,
// sequential and sharded 1/2/4 ways, the state digest with telemetry
// enabled must be byte-identical to the digest with telemetry disabled.
func TestTelemetryDigestInvariance(t *testing.T) {
	const n = 4
	want := rackDigestTelemetry(t, n, true)
	if got := rackDigestTelemetry(t, n, false); got != want {
		t.Errorf("sequential rack: telemetry perturbs state: %s", firstDiff(want, got))
	}
	for _, shards := range []int{1, 2, 4} {
		base := parallelDigestTelemetry(t, n, shards, true)
		if base != want {
			t.Fatalf("shards=%d baseline differs from sequential (pre-existing): %s", shards, firstDiff(want, base))
		}
		if got := parallelDigestTelemetry(t, n, shards, false); got != want {
			t.Errorf("shards=%d: telemetry perturbs state: %s", shards, firstDiff(want, got))
		}
	}
}

// exportAll renders every export surface of one server into a single
// byte string.
func exportAll(sys *System) string {
	var buf bytes.Buffer
	telemetry.WritePrometheus(&buf, sys.Telemetry, sys.Journal)
	telemetry.WriteSeriesJSON(&buf, sys.Telemetry, "")
	telemetry.WriteJournalJSON(&buf, sys.Telemetry, sys.Journal, 0, 0)
	buf.WriteString(telemetry.TopText(sys.Telemetry, ""))
	buf.WriteString(telemetry.JournalText(sys.Journal, 0))
	return buf.String()
}

// TestTelemetryExportDeterminism: a sequential rack's exported series
// and journal are byte-deterministic across repeated runs.
func TestTelemetryExportDeterminism(t *testing.T) {
	run := func() string {
		rack := sequentialRack(t, telemetryEquivConfig(false), 2)
		var b strings.Builder
		for _, s := range rack.Servers {
			b.WriteString(exportAll(s))
		}
		return b.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatal("exported telemetry differs across identical runs:\n" + firstDiff(a, b))
	}
	if !strings.Contains(a, "pard_scrapes_total") || !strings.Contains(a, "pard-journal/v1") {
		t.Fatal("export missing expected surfaces")
	}
}

const testReloadPolicy = `rule guard cpa llc ldom svc:
    when miss_rate > 30%
    => waymask = 0xff00, others waymask = 0x00ff
`

// newAPITestServer boots a small contended system, a console and the
// HTTP surface. A journalCap above zero swaps in a journal of that
// capacity before anything is journaled.
func newAPITestServer(t *testing.T, journalCap int) (*System, *Console, *httptest.Server) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.LLC.SizeBytes = 256 * 1024
	sys := NewSystem(cfg)
	if journalCap > 0 {
		sys.Journal = telemetry.NewJournal(sys.Engine, journalCap)
		sys.Firmware.SetJournal(sys.Journal)
	}
	if _, err := sys.CreateLDom(LDomConfig{Name: "svc", Cores: []int{0}, Priority: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.CreateLDom(LDomConfig{Name: "bg", Cores: []int{1}}); err != nil {
		t.Fatal(err)
	}
	sys.RunWorkload(0, &workload.Stream{Base: 0, Footprint: 100 << 10, Compute: 4})
	sys.RunWorkload(1, &workload.CacheFlush{Base: 1 << 30, Footprint: 4 << 20, Seed: 1})
	sys.Run(2 * Millisecond)

	console, err := NewConsole(sys, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { console.Close() })
	srv := httptest.NewServer(NewAPIHandler(sys, console))
	t.Cleanup(srv.Close)
	return sys, console, srv
}

func httpGet(t *testing.T, url string) (string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	return string(body), resp.Header.Get("Content-Type")
}

// TestAPIMetricsEndpoint lints the Prometheus exposition.
func TestAPIMetricsEndpoint(t *testing.T) {
	_, _, srv := newAPITestServer(t, 0)
	body, ctype := httpGet(t, srv.URL+"/metrics")
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Fatalf("content type %q", ctype)
	}
	families := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			families[f[2]] = true
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "#") || len(strings.Fields(line)) < 2 {
			t.Fatalf("malformed exposition line %q", line)
		}
	}
	for _, want := range []string{"pard_series", "pard_scrapes_total", "pard_journal_events_total"} {
		if !families[want] {
			t.Fatalf("missing metric family %q in:\n%s", want, body)
		}
	}
	if !strings.Contains(body, `pard_series{name="cpa0.ds0.miss_rate"}`) {
		t.Fatal("plane stat series not exported")
	}
}

// TestAPISeriesEndpoint round-trips the pard-telemetry/v1 schema.
func TestAPISeriesEndpoint(t *testing.T) {
	sys, _, srv := newAPITestServer(t, 0)
	body, ctype := httpGet(t, srv.URL+"/api/v1/series?prefix=cpa0.")
	if ctype != "application/json" {
		t.Fatalf("content type %q", ctype)
	}
	var doc struct {
		Schema  string `json:"schema"`
		SimTime uint64 `json:"sim_time"`
		Series  []struct {
			Name    string `json:"name"`
			Samples []struct {
				T uint64  `json:"t"`
				V float64 `json:"v"`
			} `json:"samples"`
		} `json:"series"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if doc.Schema != "pard-telemetry/v1" || doc.SimTime != uint64(sys.Engine.Now()) {
		t.Fatalf("header %q t=%d", doc.Schema, doc.SimTime)
	}
	if len(doc.Series) == 0 {
		t.Fatal("no cpa0 series")
	}
	for _, s := range doc.Series {
		if !strings.HasPrefix(s.Name, "cpa0.") {
			t.Fatalf("prefix filter leaked %q", s.Name)
		}
		if len(s.Samples) == 0 {
			t.Fatalf("series %q has no samples", s.Name)
		}
	}
}

// TestAPIJournalEndpoint checks the bounded-journal truncation marker
// and the since/limit window.
func TestAPIJournalEndpoint(t *testing.T) {
	sys, _, srv := newAPITestServer(t, 4)
	if sys.Journal.Dropped() == 0 {
		t.Fatal("test premise broken: journal did not overflow at capacity 4")
	}
	body, _ := httpGet(t, srv.URL+"/api/v1/journal?since=0")
	var doc struct {
		Schema    string            `json:"schema"`
		NextSeq   uint64            `json:"next_seq"`
		Truncated bool              `json:"truncated"`
		Events    []telemetry.Event `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != "pard-journal/v1" || !doc.Truncated {
		t.Fatalf("since=0 on an overflowed journal must set truncated: %s", body)
	}
	if len(doc.Events) != 4 {
		t.Fatalf("retained %d events, want 4", len(doc.Events))
	}

	oldest := doc.Events[0].Seq
	body, _ = httpGet(t, srv.URL+fmt.Sprintf("/api/v1/journal?since=%d&limit=2", oldest))
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Truncated || len(doc.Events) != 2 || doc.Events[0].Seq != oldest {
		t.Fatalf("windowed request wrong: %s", body)
	}

	if resp, err := http.Get(srv.URL + "/api/v1/journal?since=bogus"); err == nil {
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad since returned %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// TestAPIConcurrentScrapeDuringReload hammers /metrics and the JSON
// endpoints from several goroutines while policy hot-reloads and sim
// advances run through the console executor. Run under -race by `make
// race`: the Console.Do serialization is the only thing standing
// between the HTTP handlers and the single-threaded simulation.
func TestAPIConcurrentScrapeDuringReload(t *testing.T) {
	sys, console, srv := newAPITestServer(t, 0)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, path := range []string{"/metrics", "/api/v1/series", "/api/v1/journal"} {
		wg.Add(1)
		go func(url string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(url)
				if err != nil {
					return // server shut down under us; fine
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(srv.URL + path)
	}

	for i := 0; i < 10; i++ {
		if err := console.Do(func() {
			if err := sys.ReloadPolicy("guard", testReloadPolicy); err != nil {
				t.Errorf("reload %d: %v", i, err)
			}
			sys.Run(100 * Microsecond)
		}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	var loads int
	for i := 0; i < sys.Journal.Len(); i++ {
		ev := sys.Journal.At(i)
		if ev.Kind == telemetry.KindPolicyLoad || ev.Kind == telemetry.KindPolicyReload {
			loads++
		}
	}
	if loads != 10 {
		t.Fatalf("journal saw %d policy loads, want 10", loads)
	}
}

// TestTelemetryDisabledSurfaces: with telemetry off, the console
// commands and HTTP endpoints degrade with clear errors, and the
// system carries no registry.
func TestTelemetryDisabledSurfaces(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Telemetry.Disable = true
	sys := NewSystem(cfg)
	if sys.Telemetry != nil || sys.Journal != nil {
		t.Fatal("disabled telemetry still attached")
	}
	if _, err := Dispatch(sys, "telemetry"); err == nil {
		t.Fatal("telemetry command should fail when disabled")
	}
	console, err := NewConsole(sys, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer console.Close()
	srv := httptest.NewServer(NewAPIHandler(sys, console))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("disabled /metrics returned %d, want 503", resp.StatusCode)
	}
}

// TestConsoleTelemetryCommands smoke-tests the operator views.
func TestConsoleTelemetryCommands(t *testing.T) {
	sys, _, _ := newAPITestServer(t, 0)
	out, err := Dispatch(sys, "telemetry")
	if err != nil || !strings.Contains(out, "series") {
		t.Fatalf("telemetry: %q, %v", out, err)
	}
	out, err = Dispatch(sys, "top cpa0.")
	if err != nil || !strings.Contains(out, "cpa0.ds0.miss_rate") {
		t.Fatalf("top: %q, %v", out, err)
	}
	out, err = Dispatch(sys, "journal 5")
	if err != nil || !strings.Contains(out, "param_write") {
		t.Fatalf("journal: %q, %v", out, err)
	}
}
