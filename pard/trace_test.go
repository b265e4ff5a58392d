package pard

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"repro/internal/workload"
)

// tracedSystem boots a two-LDom contention system with the flight
// recorder sampling every packet.
func tracedSystem(t *testing.T, crossbar bool) *System {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Crossbar = crossbar
	cfg.TraceSample = 1
	sys := NewSystem(cfg)
	if _, err := sys.CreateLDom(LDomConfig{Name: "svc", Cores: []int{0}, MemBase: 0, Priority: 1, RowBuf: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.CreateLDom(LDomConfig{Name: "batch", Cores: []int{1}, MemBase: 2 << 30}); err != nil {
		t.Fatal(err)
	}
	return sys
}

// Every sampled packet's life must decompose cleanly: the first hop
// starts at issue, spans are contiguous and internally ordered, the
// last hop ends at completion, and the per-hop queue+service splits sum
// exactly to the end-to-end latency.
func TestFlightRecorderSpanInvariants(t *testing.T) {
	sys := tracedSystem(t, true)
	sys.RunWorkload(0, NewSTREAM(0))
	sys.RunWorkload(1, &workload.CacheFlush{Base: 2 << 30, Footprint: 16 << 20, Seed: 2})
	sys.Run(2 * Millisecond)

	rec := sys.Recorder
	if rec == nil {
		t.Fatal("TraceSample=1 did not attach a recorder")
	}
	traces := rec.Traces()
	if rec.Finished() == 0 || len(traces) == 0 {
		t.Fatalf("no finished traces (finished=%d)", rec.Finished())
	}
	checked := 0
	for _, tr := range traces {
		spans := tr.Spans()
		if len(spans) == 0 {
			t.Fatalf("trace %d has no spans", tr.ID)
		}
		if tr.DSID != 0 && tr.DSID != 1 {
			t.Fatalf("trace %d has foreign DS-id %v", tr.ID, tr.DSID)
		}
		if spans[0].Enter != tr.Issue {
			t.Fatalf("trace %d: first hop enters at %v, issued at %v", tr.ID, spans[0].Enter, tr.Issue)
		}
		var sum Tick
		for i, s := range spans {
			if s.Enter > s.Service || s.Service > s.Done {
				t.Fatalf("trace %d hop %d (%s): enter %v / service %v / done %v out of order",
					tr.ID, i, rec.HopName(int(s.Hop)), s.Enter, s.Service, s.Done)
			}
			if i > 0 && spans[i-1].Done != s.Enter {
				t.Fatalf("trace %d: gap between hop %d done %v and hop %d enter %v",
					tr.ID, i-1, spans[i-1].Done, i, s.Enter)
			}
			sum += s.QueueWait() + s.ServiceTime()
		}
		if spans[len(spans)-1].Done != tr.End {
			t.Fatalf("trace %d: last hop done %v != end %v", tr.ID, spans[len(spans)-1].Done, tr.End)
		}
		if !tr.Truncated && sum != tr.End-tr.Issue {
			t.Fatalf("trace %d: hop sum %v != end-to-end %v", tr.ID, sum, tr.End-tr.Issue)
		}
		checked++
	}
	if checked < 100 {
		t.Fatalf("only %d traces checked; expected a busy 2ms window", checked)
	}
}

// The disk path (core -> bridge -> IDE) must produce spans too.
func TestFlightRecorderCoversDiskPath(t *testing.T) {
	sys := tracedSystem(t, false)
	sys.RunWorkload(0, &workload.DiskCopy{TotalBytes: 8 << 20, ChunkBytes: 64 << 10, Write: true, Loop: true, Compute: 200})
	sys.Run(2 * Millisecond)

	rec := sys.Recorder
	hopIdx := map[string]int{}
	for i, name := range rec.Hops() {
		hopIdx[name] = i
	}
	for _, name := range []string{"bridge", "ide"} {
		hop, ok := hopIdx[name]
		if !ok {
			t.Fatalf("hop %q not registered (hops: %v)", name, rec.Hops())
		}
		if rec.SpanCount(hop, 0) == 0 {
			t.Fatalf("no spans recorded at %q for ldom0 after 2ms of dd", name)
		}
	}
}

// The Perfetto export of a real two-LDom run: parseable, >0 complete
// spans, DS-id on every non-metadata event.
func TestFlightRecorderPerfettoExport(t *testing.T) {
	sys := tracedSystem(t, true)
	sys.RunWorkload(0, NewSTREAM(0))
	sys.RunWorkload(1, &workload.CacheFlush{Base: 2 << 30, Footprint: 16 << 20, Seed: 2})
	sys.Run(Millisecond)

	var buf bytes.Buffer
	n, err := sys.Recorder.WritePerfetto(&buf, nil)
	if err != nil || n == 0 {
		t.Fatalf("WritePerfetto = %d, %v", n, err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	complete := 0
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "M" {
			continue
		}
		args, ok := ev["args"].(map[string]any)
		if !ok {
			t.Fatalf("event %v missing args", ev)
		}
		if _, ok := args["dsid"]; !ok {
			t.Fatalf("event %v missing args.dsid", ev)
		}
		if ev["ph"] == "X" {
			complete++
		}
	}
	if complete == 0 {
		t.Fatal("no complete (ph=X) hop spans in export")
	}
}

// Latency percentiles surface through the PRM device tree and are
// scraped into telemetry series like any other statistic.
func TestLatencyStatFilesAndSeries(t *testing.T) {
	sys := tracedSystem(t, false)
	sys.RunWorkload(0, NewSTREAM(0))
	sys.Run(2 * Millisecond)

	for _, path := range []string{
		"/sys/cpa/cpa0/ldoms/ldom0/statistics/lat_p50_queue",
		"/sys/cpa/cpa0/ldoms/ldom0/statistics/lat_p99_queue",
		"/sys/cpa/cpa0/ldoms/ldom0/statistics/lat_p50_service",
		"/sys/cpa/cpa0/ldoms/ldom0/statistics/lat_p99_service",
		"/sys/cpa/cpa1/ldoms/ldom0/statistics/lat_p99_queue",
		"/sys/cpa/cpa1/ldoms/ldom1/statistics/lat_p99_service",
	} {
		out, err := sys.Sh("cat " + path)
		if err != nil {
			t.Fatalf("cat %s: %v", path, err)
		}
		if _, err := strconv.ParseUint(out, 10, 64); err != nil {
			t.Fatalf("%s = %q, not an unsigned tick count", path, out)
		}
	}
	svc, _ := sys.Sh("cat /sys/cpa/cpa1/ldoms/ldom0/statistics/lat_p50_service")
	if v, _ := strconv.ParseUint(svc, 10, 64); v == 0 {
		t.Fatal("memory service p50 is 0 after 2ms of STREAM")
	}

	for _, name := range []string{"cpa1.ds0.lat_p50_service", "cpa0.ds0.lat_p99_queue"} {
		s := sys.Telemetry.Find(name)
		if s == nil || s.Len() == 0 {
			t.Fatalf("series %s holds no samples", name)
		}
	}
}

// The console trace command dumps the per-hop breakdown table.
func TestConsoleTraceCommand(t *testing.T) {
	sys := tracedSystem(t, false)
	sys.RunWorkload(0, NewSTREAM(0))
	sys.Run(Millisecond)

	out, err := Dispatch(sys, "trace")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"flight recorder", "queue-p50", "svc-p99", "mem", "llc", "ds0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace output missing %q:\n%s", want, out)
		}
	}

	// Without either tracer the command must explain how to enable one.
	bare := NewSystem(DefaultConfig())
	if _, err := Dispatch(bare, "trace"); err == nil || !strings.Contains(err.Error(), "TraceSample") {
		t.Fatalf("expected enablement hint, got %v", err)
	}
}
