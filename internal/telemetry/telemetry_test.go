package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

func testPlane(e *sim.Engine) *core.Plane {
	params := core.NewTable(core.Column{Name: "waymask", Writable: true, Default: 0xFFFF})
	stats := core.NewTable(core.Column{Name: "miss_rate"}, core.Column{Name: "capacity"})
	return core.NewPlane(e, "CACHE_CP", 'C', params, stats, 8)
}

func TestRegistryScrapesPlaneRows(t *testing.T) {
	e := sim.NewEngine()
	r := NewRegistry(e, 10, 16)
	p := testPlane(e)
	r.AddPlane("cpa0", p)

	p.Stats().EnsureRow(1)
	p.SetStat(1, "miss_rate", 300)
	r.Start()
	e.Run(10)

	ring := r.Find("cpa0.ds1.miss_rate")
	if ring == nil {
		t.Fatalf("series not created; have %d series", len(r.Series()))
	}
	last, ok := ring.Last()
	if !ok || last.Value != 300 || last.When != 10 {
		t.Fatalf("sample = %+v ok=%v, want value 300 at tick 10", last, ok)
	}

	// A row appearing later is picked up on the next scrape without
	// disturbing existing rings.
	p.Stats().EnsureRow(2)
	p.SetStat(2, "miss_rate", 50)
	e.Run(20)
	if r.Find("cpa0.ds2.miss_rate") == nil {
		t.Fatal("new row not resynced into a series")
	}
	if got := ring.Len(); got != 2 {
		t.Fatalf("ds1 ring has %d samples after 2 scrapes, want 2", got)
	}
}

func TestRegistryRingPersistsAcrossRowDelete(t *testing.T) {
	e := sim.NewEngine()
	r := NewRegistry(e, 0, 16)
	p := testPlane(e)
	r.AddPlane("cpa0", p)
	p.Stats().EnsureRow(1)
	p.SetStat(1, "miss_rate", 7)
	r.Scrape()
	ring := r.Find("cpa0.ds1.miss_rate")
	if ring == nil || ring.Len() != 1 {
		t.Fatal("baseline scrape failed")
	}
	p.Stats().DeleteRow(1)
	r.Scrape() // resyncs; the dead row is no longer scraped
	if ring.Len() != 1 {
		t.Fatalf("destroyed LDom's ring grew to %d samples", ring.Len())
	}
	p.Stats().EnsureRow(1)
	p.SetStat(1, "miss_rate", 9)
	r.Scrape()
	if ring.Len() != 2 {
		t.Fatalf("recreated DS-id did not resume its ring (len %d)", ring.Len())
	}
}

func TestRegistryGaugesAndHooks(t *testing.T) {
	e := sim.NewEngine()
	r := NewRegistry(e, 0, 8)
	v := 1.5
	ring := r.AddGauge("g", func() float64 { return v })

	r.Scrape()
	v = 2.5
	r.Scrape()
	if ring.Len() != 2 || ring.At(1).Value != 2.5 {
		t.Fatalf("gauge samples wrong: len=%d", ring.Len())
	}
	if r.Find("g") != ring || ring.Name() != "g" {
		t.Fatal("Find does not return the gauge's series")
	}
	if r.Scrapes() != 2 {
		t.Fatalf("Scrapes() = %d", r.Scrapes())
	}
}

func TestScrapeSteadyStateZeroAlloc(t *testing.T) {
	e := sim.NewEngine()
	r := NewRegistry(e, 0, 64)
	p := testPlane(e)
	r.AddPlane("cpa0", p)
	for ds := core.DSID(1); ds <= 4; ds++ {
		p.Stats().EnsureRow(ds)
	}
	r.AddGauge("g", func() float64 { return 1 })
	r.Scrape() // resync outside the measured window
	allocs := testing.AllocsPerRun(100, func() { r.Scrape() })
	if allocs != 0 {
		t.Fatalf("steady-state scrape allocates %.1f/op, want 0", allocs)
	}
}

func TestJournalBoundedOverwrite(t *testing.T) {
	e := sim.NewEngine()
	j := NewJournal(e, 4)
	for i := 0; i < 7; i++ {
		j.Record(Event{Kind: KindParamWrite, Origin: "t", New: uint64(i)})
	}
	if j.Len() != 4 || j.NextSeq() != 7 || j.Dropped() != 3 {
		t.Fatalf("len=%d nextSeq=%d dropped=%d, want 4/7/3", j.Len(), j.NextSeq(), j.Dropped())
	}
	if j.At(0).Seq != 3 || j.At(3).Seq != 6 {
		t.Fatalf("retained window [%d, %d], want [3, 6]", j.At(0).Seq, j.At(3).Seq)
	}
	got := j.Since(5, nil)
	if len(got) != 2 || got[0].Seq != 5 {
		t.Fatalf("Since(5) = %d events from %d", len(got), got[0].Seq)
	}
}

func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	j.Record(Event{Kind: KindTriggerFired}) // must not panic
}

func TestWritePrometheusFormat(t *testing.T) {
	e := sim.NewEngine()
	r := NewRegistry(e, 5, 8)
	j := NewJournal(e, 8)
	p := testPlane(e)
	r.AddPlane("cpa0", p)
	p.Stats().EnsureRow(1)
	p.SetStat(1, "miss_rate", 42)
	r.Scrape()
	j.Record(Event{Kind: KindPolicyLoad, Origin: "console", Name: "x"})

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r, j); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Text exposition lint: every non-comment line is `name{labels} value`
	// or `name value`, every metric family has HELP and TYPE.
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("comment line is neither HELP nor TYPE: %q", line)
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			t.Fatalf("sample line %q has no value", line)
		}
	}
	for _, want := range []string{
		`pard_series{name="cpa0.ds1.miss_rate"} 42`,
		"pard_scrapes_total 1",
		"pard_journal_events_total 1",
		"# TYPE pard_series gauge",
		"# TYPE pard_scrapes_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestSeriesJSONRoundTrip(t *testing.T) {
	e := sim.NewEngine()
	r := NewRegistry(e, 5, 8)
	p := testPlane(e)
	r.AddPlane("cpa0", p)
	p.Stats().EnsureRow(1)
	p.SetStat(1, "miss_rate", 11)
	r.Scrape()

	var buf bytes.Buffer
	if err := WriteSeriesJSON(&buf, r, "cpa0."); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema  string `json:"schema"`
		Scrapes uint64 `json:"scrapes"`
		Series  []struct {
			Name    string `json:"name"`
			Samples []struct {
				T sim.Tick `json:"t"`
				V float64  `json:"v"`
			} `json:"samples"`
		} `json:"series"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if doc.Schema != "pard-telemetry/v1" || doc.Scrapes != 1 {
		t.Fatalf("doc header %q/%d", doc.Schema, doc.Scrapes)
	}
	if len(doc.Series) != 2 { // miss_rate + capacity
		t.Fatalf("series count %d, want 2", len(doc.Series))
	}
	if doc.Series[0].Name != "cpa0.ds1.miss_rate" || doc.Series[0].Samples[0].V != 11 {
		t.Fatalf("series[0] = %+v", doc.Series[0])
	}
}

func TestJournalJSONTruncationMarker(t *testing.T) {
	e := sim.NewEngine()
	r := NewRegistry(e, 5, 8)
	j := NewJournal(e, 2)
	for i := 0; i < 5; i++ {
		j.Record(Event{Kind: KindTriggerFired, Origin: "t"})
	}
	var buf bytes.Buffer
	if err := WriteJournalJSON(&buf, r, j, 0, 0); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema    string  `json:"schema"`
		NextSeq   uint64  `json:"next_seq"`
		Dropped   uint64  `json:"dropped"`
		Truncated bool    `json:"truncated"`
		Events    []Event `json:"events"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != "pard-journal/v1" || !doc.Truncated || doc.Dropped != 3 {
		t.Fatalf("doc = %+v, want truncated with 3 dropped", doc)
	}
	if len(doc.Events) != 2 || doc.Events[0].Seq != 3 {
		t.Fatalf("events = %+v", doc.Events)
	}

	// A request starting inside the retained window is not truncated.
	buf.Reset()
	if err := WriteJournalJSON(&buf, r, j, doc.Events[0].Seq, 0); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Truncated {
		t.Fatal("in-window request marked truncated")
	}
}

func TestTextViews(t *testing.T) {
	e := sim.NewEngine()
	r := NewRegistry(e, 5, 8)
	j := NewJournal(e, 8)
	r.AddGauge("g", func() float64 { return 3 })
	r.Scrape()
	j.Record(Event{Kind: KindParamWrite, Origin: "console", Plane: "cpa0", Name: "waymask", Old: 1, New: 2})
	j.Record(Event{Kind: KindTriggerSuppress, Origin: "policy:p/r", Plane: "cpa0", Name: "miss_rate", Old: 3, New: 746, Detail: "suppressed: action a on cooldown 10ps"})
	j.Record(Event{Kind: KindTriggerFired, Origin: "console", Plane: "cpa0", Name: "miss_rate", New: 1000, Detail: "action a"})

	top := TopText(r, "")
	if !strings.Contains(top, "g") || !strings.Contains(top, "1 series") {
		t.Fatalf("TopText:\n%s", top)
	}
	jt := JournalText(j, 0)
	if !strings.Contains(jt, "1->2") || !strings.Contains(jt, "value=746 since_last=3 (suppressed: action a on cooldown 10ps)") {
		t.Fatalf("JournalText:\n%s", jt)
	}
	// Trigger events name their LDom even when it is ds0, and both a
	// firing and a suppression show the statistic's value.
	if !strings.Contains(jt, "ds=0 name=miss_rate value=746 since_last=3") ||
		!strings.Contains(jt, "ds=0 name=miss_rate value=1000 (action a)") {
		t.Fatalf("JournalText trigger lines:\n%s", jt)
	}
	sum := SummaryText(r, j)
	if !strings.Contains(sum, "3 retained of 3 recorded") {
		t.Fatalf("SummaryText:\n%s", sum)
	}
}
