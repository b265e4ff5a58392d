package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/metric"
	"repro/internal/sim"
)

// The disabled recorder (nil receiver) and the unsampled fast path must
// both be allocation-free: every hop calls these hooks unconditionally.
func TestRecorderDisabledZeroAlloc(t *testing.T) {
	e := sim.NewEngine()
	ids := &core.IDSource{}
	p := core.NewPacket(ids, core.KindMemRead, 1, 0x40, 64, 0)

	var nilRec *Recorder
	if avg := testing.AllocsPerRun(500, func() {
		nilRec.Begin(0, p)
		nilRec.Enter(0, p)
		nilRec.Service(0, p)
		nilRec.Leave(0, p)
		nilRec.Finish(0, p)
	}); avg != 0 {
		t.Fatalf("nil recorder: %v allocs/op", avg)
	}

	r := NewRecorder(e, 64)
	hop := r.RegisterHop("dev")
	// Make p unsampled: the ID source above issued ID 1 (1 & 63 != 0).
	if r.Sampled(p) {
		t.Fatalf("packet %d unexpectedly sampled at 1-in-64", p.ID)
	}
	if avg := testing.AllocsPerRun(500, func() {
		r.Begin(hop, p)
		r.Enter(hop, p)
		r.Service(hop, p)
		r.Leave(hop, p)
		r.Finish(hop, p)
	}); avg != 0 {
		t.Fatalf("unsampled packet: %v allocs/op", avg)
	}
	if r.Finished() != 0 || r.ActiveCount() != 0 {
		t.Fatal("unsampled packet left recorder state behind")
	}
}

// The sampled path is allocation-free once warm: one packet's whole
// life (issue, one hop, completion) plus a percentile read.
func TestRecorderSampledZeroAlloc(t *testing.T) {
	e := sim.NewEngine()
	ids := &core.IDSource{}
	r := NewRecorder(e, 1)
	src := r.RegisterHop("cpu0")
	hop := r.RegisterHop("mem")
	p := core.NewPacket(ids, core.KindMemRead, 1, 0x40, 64, 0)
	life := func() {
		r.Begin(src, p)
		r.Enter(hop, p)
		e.Run(e.Now() + 300)
		r.Service(hop, p)
		e.Run(e.Now() + 1000)
		r.Leave(hop, p)
		r.Finish(hop, p)
		_ = r.Percentile(hop, 1, true, 0.99)
	}
	life() // warm-up: the archive, the (hop, DS-id) pair, the trace pool
	if avg := testing.AllocsPerRun(1000, life); avg != 0 {
		t.Fatalf("sampled packet: %v allocs/op", avg)
	}
	if r.ActiveCount() != 0 || r.SpanCount(hop, 1) != 1002 { // warm-up, AllocsPerRun's own warm-up, 1000 runs
		t.Fatalf("active %d, spans %d", r.ActiveCount(), r.SpanCount(hop, 1))
	}
}

func TestRecorderSamplingMask(t *testing.T) {
	e := sim.NewEngine()
	ids := &core.IDSource{}
	r := NewRecorder(e, 3) // rounds up to 4
	if r.SampleEvery() != 4 {
		t.Fatalf("SampleEvery = %d, want 4", r.SampleEvery())
	}
	hop := r.RegisterHop("dev")
	for i := 0; i < 8; i++ {
		p := core.NewPacket(ids, core.KindMemRead, 1, uint64(i)*64, 64, e.Now())
		r.Enter(hop, p)
		r.Finish(hop, p)
		p.Complete(e.Now())
	}
	// IDs 1..8 were issued; 4 and 8 are the multiples of 4.
	if r.Finished() != 2 {
		t.Fatalf("finished = %d, want 2 of 8 at 1-in-4", r.Finished())
	}
	if r.ActiveCount() != 0 {
		t.Fatalf("active = %d after all completions", r.ActiveCount())
	}
	// The divisor rounds up to a power of two and saturates at 2^63:
	// pardd's -trace-sample flag accepts any uint64.
	for in, want := range map[uint64]uint64{0: 1, 1: 1, 2: 2, 64: 64, 65: 128, 1 << 63: 1 << 63, 1<<63 + 1: 1 << 63, math.MaxUint64: 1 << 63} {
		if got := NewRecorder(e, in).SampleEvery(); got != want {
			t.Fatalf("NewRecorder(%d).SampleEvery() = %d, want %d", in, got, want)
		}
	}
}

// A packet crossing two hops decomposes exactly: per-hop queue/service
// splits, contiguous spans, and the hop sums equal end-to-end latency.
func TestRecorderSpanDecomposition(t *testing.T) {
	e := sim.NewEngine()
	ids := &core.IDSource{}
	r := NewRecorder(e, 1)
	src := r.RegisterHop("cpu0")
	hopA := r.RegisterHop("xbar")
	hopB := r.RegisterHop("mem")

	p := core.NewPacket(ids, core.KindMemRead, 2, 0x1000, 64, e.Now())
	r.Begin(src, p)
	r.Enter(hopA, p) // t=0
	e.Run(300)
	r.Service(hopA, p) // 300 queued
	e.Run(500)
	r.Leave(hopA, p) // 200 service
	r.Enter(hopB, p) // same tick: contiguous hand-off
	e.Run(1500)
	r.Finish(hopB, p) // 1000 service, no Service call -> 0 queue
	end := e.Now()
	p.Complete(end)

	traces := r.Traces()
	if len(traces) != 1 {
		t.Fatalf("traces = %d", len(traces))
	}
	tr := traces[0]
	if tr.Src != int32(src) || tr.DSID != 2 || tr.Kind != core.KindMemRead {
		t.Fatalf("identity: src=%d ds=%v kind=%v", tr.Src, tr.DSID, tr.Kind)
	}
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d", len(spans))
	}
	a, b := spans[0], spans[1]
	if a.Hop != int32(hopA) || a.Enter != 0 || a.Service != 300 || a.Done != 500 {
		t.Fatalf("hopA span = %+v", a)
	}
	if a.QueueWait() != 300 || a.ServiceTime() != 200 {
		t.Fatalf("hopA split = %v/%v", a.QueueWait(), a.ServiceTime())
	}
	if b.Hop != int32(hopB) || b.Enter != a.Done || b.QueueWait() != 0 || b.ServiceTime() != 1000 {
		t.Fatalf("hopB span = %+v", b)
	}
	var sum sim.Tick
	for _, s := range spans {
		sum += s.Done - s.Enter
	}
	if sum != tr.End-tr.Issue || tr.End != end {
		t.Fatalf("hop sum %v != end-to-end %v", sum, tr.End-tr.Issue)
	}

	if n := r.SpanCount(hopA, 2); n != 1 {
		t.Fatalf("hopA span count = %d", n)
	}
	if q := r.Percentile(hopA, 2, false, 0.5); q == 0 || q > 300 {
		t.Fatalf("hopA queue p50 = %d, want (0, 300]", q)
	}
	if s := r.Percentile(hopB, 2, true, 0.99); s == 0 || s > 1000 {
		t.Fatalf("hopB service p99 = %d, want (0, 1000]", s)
	}
	if r.Percentile(hopB, 7, true, 0.5) != 0 {
		t.Fatal("unknown DS-id should read 0")
	}

	table := r.BreakdownTable()
	for _, want := range []string{"xbar", "mem", "ds2", "1-in-1"} {
		if !strings.Contains(table, want) {
			t.Fatalf("breakdown table missing %q:\n%s", want, table)
		}
	}
}

// The completed-trace ring is bounded at DefaultSpanCapacity and keeps
// the most recent traces.
func TestRecorderRingBounded(t *testing.T) {
	e := sim.NewEngine()
	ids := &core.IDSource{}
	r := NewRecorder(e, 1)
	hop := r.RegisterHop("dev")
	const n = DefaultSpanCapacity + 2
	var lastIDs []uint64
	for i := 0; i < n; i++ {
		p := core.NewPacket(ids, core.KindMemRead, 1, 0, 64, e.Now())
		r.Enter(hop, p)
		r.Finish(hop, p)
		p.Complete(e.Now())
		if i >= n-DefaultSpanCapacity {
			lastIDs = append(lastIDs, p.ID)
		}
	}
	traces := r.Traces()
	if len(traces) != DefaultSpanCapacity {
		t.Fatalf("ring length = %d, want %d", len(traces), DefaultSpanCapacity)
	}
	for i, tr := range traces {
		if tr.ID != lastIDs[i] {
			t.Fatalf("ring[%d].ID = %d, want %d (oldest-first recency)", i, tr.ID, lastIDs[i])
		}
	}
	if r.Finished() != n {
		t.Fatalf("finished = %d, want %d (ring eviction must not undercount)", r.Finished(), n)
	}
}

// An archived trace is a value copy: recycling the pooled packet that
// produced it (and reusing its PacketTrace struct) cannot corrupt it.
func TestRecorderArchiveSurvivesPacketRecycle(t *testing.T) {
	e := sim.NewEngine()
	ids := &core.IDSource{}
	ids.EnablePool()
	r := NewRecorder(e, 1)
	hop := r.RegisterHop("dev")

	p := core.NewPacket(ids, core.KindMemRead, 3, 0x1000, 64, e.Now())
	firstID := p.ID
	r.Enter(hop, p)
	e.Run(700)
	r.Finish(hop, p)
	p.Complete(e.Now())

	// The pool hands the same struct back; the recorder also reuses its
	// pooled PacketTrace for the new flight.
	q := core.NewPacket(ids, core.KindPIOWrite, 9, 0xdead, 4096, e.Now())
	if q != p {
		t.Fatal("pool did not recycle the packet struct (test premise)")
	}
	r.Enter(hop, q)
	e.Run(900)

	traces := r.Traces()
	if len(traces) != 1 {
		t.Fatalf("traces = %d", len(traces))
	}
	tr := traces[0]
	if tr.ID != firstID || tr.DSID != 3 || tr.Addr != 0x1000 || tr.Kind != core.KindMemRead {
		t.Fatalf("archived trace corrupted by recycle: %+v", tr)
	}
	if tr.End != 700 || tr.NHops != 1 || tr.Hops[0].Done != 700 {
		t.Fatalf("archived span corrupted: %+v", tr)
	}
}

// More hops than MaxHopsPerPacket: overflow spans drop, the trace is
// marked, nothing leaks.
func TestRecorderHopTruncation(t *testing.T) {
	e := sim.NewEngine()
	ids := &core.IDSource{}
	r := NewRecorder(e, 1)
	hops := []int{r.RegisterHop("a"), r.RegisterHop("b")}
	p := core.NewPacket(ids, core.KindMemRead, 1, 0, 64, e.Now())
	for i := 0; i < MaxHopsPerPacket+2; i++ {
		r.Enter(hops[i%2], p)
		e.Run(e.Now() + 10)
	}
	r.Finish(hops[0], p)
	p.Complete(e.Now())

	traces := r.Traces()
	if len(traces) != 1 {
		t.Fatalf("traces = %d", len(traces))
	}
	tr := traces[0]
	if !tr.Truncated || tr.NHops != MaxHopsPerPacket {
		t.Fatalf("truncated=%v nhops=%d", tr.Truncated, tr.NHops)
	}
	if r.DroppedSpans() != 2 {
		t.Fatalf("dropped = %d, want 2", r.DroppedSpans())
	}
	if r.ActiveCount() != 0 {
		t.Fatal("truncated trace leaked active state")
	}
}

// WritePerfetto: parseable JSON, metadata per hop, b/X/e per trace,
// DS-id on every non-metadata event, X spans inside the b/e window.
func TestWritePerfettoStructure(t *testing.T) {
	e := sim.NewEngine()
	ids := &core.IDSource{}
	r := NewRecorder(e, 1)
	src := r.RegisterHop("cpu0")
	dev := r.RegisterHop("dev")
	for i := 0; i < 3; i++ {
		p := core.NewPacket(ids, core.KindMemRead, core.DSID(i%2+1), uint64(i)*64, 64, e.Now())
		r.Begin(src, p)
		r.Enter(dev, p)
		e.Run(e.Now() + 400)
		r.Finish(dev, p)
		p.Complete(e.Now())
	}

	var buf bytes.Buffer
	n, err := r.WritePerfetto(&buf, nil)
	if err != nil || n != 3 {
		t.Fatalf("WritePerfetto = %d, %v", n, err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	counts := map[string]int{}
	window := map[string][2]float64{} // async id -> [begin ts, end ts]
	for _, ev := range doc.TraceEvents {
		ph := ev["ph"].(string)
		counts[ph]++
		if ph == "M" {
			continue
		}
		args, ok := ev["args"].(map[string]any)
		if !ok {
			t.Fatalf("event %v has no args", ev)
		}
		if _, ok := args["dsid"]; !ok {
			t.Fatalf("event %v missing args.dsid", ev)
		}
		switch ph {
		case "b":
			w := window[ev["id"].(string)]
			w[0] = ev["ts"].(float64)
			window[ev["id"].(string)] = w
		case "e":
			w := window[ev["id"].(string)]
			w[1] = ev["ts"].(float64)
			window[ev["id"].(string)] = w
		}
	}
	if counts["M"] != 3 { // process_name + 2 hop threads
		t.Fatalf("metadata events = %d, want 3", counts["M"])
	}
	if counts["b"] != 3 || counts["e"] != 3 || counts["X"] != 3 {
		t.Fatalf("event counts = %v", counts)
	}
	for _, ev := range doc.TraceEvents {
		if ev["ph"].(string) != "X" {
			continue
		}
		ts := ev["ts"].(float64)
		dur := ev["dur"].(float64)
		pkt := ev["args"].(map[string]any)["pkt"].(float64)
		// Find the packet's async window by matching pkt id.
		found := false
		for id, w := range window {
			if idMatches(id, uint64(pkt)) {
				found = true
				const eps = 1e-9 // µs float conversion slack
				if ts < w[0]-eps || ts+dur > w[1]+eps {
					t.Fatalf("X span [%v, %v] outside async window %v of %s", ts, ts+dur, w, id)
				}
			}
		}
		if !found {
			t.Fatalf("no async window for packet %v", pkt)
		}
	}
}

// WritePerfetto reads counter tracks from the series it is passed: an
// empty series writes no counter events, and with no samples to write
// there is no pard-telemetry process. The pard perfetto golden pins a
// populated export.
func TestWritePerfettoSkipsEmptySeries(t *testing.T) {
	r := NewRecorder(sim.NewEngine(), 1)
	r.RegisterHop("cpu0")
	for _, series := range [][]*metric.Series{nil, {metric.NewSeries("cpa0.ds0.miss_rate", 4)}} {
		var buf bytes.Buffer
		if _, err := r.WritePerfetto(&buf, series); err != nil {
			t.Fatal(err)
		}
		if out := buf.String(); strings.Contains(out, `"ph":"C"`) || strings.Contains(out, "pard-telemetry") {
			t.Fatalf("%d series with no samples wrote counter events:\n%s", len(series), out)
		}
	}
}

func idMatches(hexID string, pkt uint64) bool {
	var v uint64
	_, err := fmtSscanf(hexID, &v)
	return err == nil && v == pkt
}

// fmtSscanf parses the %#x-formatted async id.
func fmtSscanf(s string, v *uint64) (int, error) {
	var parsed uint64
	var n int
	for i := 2; i < len(s); i++ { // skip "0x"
		c := s[i]
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		default:
			return n, nil
		}
		parsed = parsed*16 + d
		n++
	}
	*v = parsed
	return n, nil
}
